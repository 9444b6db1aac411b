// lockdown_lint — the project's determinism & lock-discipline contract
// checker (DESIGN.md §11).
//
// Clang Thread Safety Analysis proves lock/field pairings; this tool checks
// the contracts clang has no vocabulary for: the DESIGN §5 determinism
// invariants (integer-only accumulation in parallel merges, no
// unordered-container iteration on serialization paths, one sanctioned
// randomness source) and the lock and file-IO disciplines. It is a
// *lexical* checker: files are stripped of comments and string-literal
// contents, then each rule pattern-matches the remaining code. The rules
// are deliberately conservative approximations — a construct that defeats
// the lexer defeats the rule — and every rule supports explicit, per-line
// suppression so a reviewed exception is visible in the diff instead of
// silently exempted. Lists that must agree (span names, CLI flags, snapshot
// sections) are not linted: one list generates the other (DESIGN.md §11).
//
// Rules (run `lockdown_lint --list-rules`):
//   LD001 float-in-parallel-merge   float/double inside a ParallelFor lambda
//                                   body — integers only until figure
//                                   boundaries.
//   LD002 unordered-iteration       range-for over a std::unordered_map/set
//                                   inside a merge/serialization function
//                                   (name contains Merge/Flush/Encode/
//                                   Serialize/Write/Save/Snapshot) or
//                                   anywhere in src/store/.
//   LD003 nondeterministic-source   rand()/srand()/time()/random_device/
//                                   system_clock outside src/util/rng.
//   LD007 raw-mutex-primitive       std::mutex/lock_guard/unique_lock/
//                                   condition_variable/... outside
//                                   src/util/mutex.h — use the annotated
//                                   util::Mutex wrappers.
//   LD008 raw-io-outside-shim       global-scope file syscalls (::open/
//                                   ::read/::write/::fsync/::rename/...) or
//                                   iostream file types (std::ofstream/
//                                   fopen/...) in src/store or src/ingest —
//                                   all file IO there routes through
//                                   io::File (src/io/io.h) so fault
//                                   injection, retry and crash points see
//                                   every byte.
//
// Suppressions:
//   // lockdown-lint: allow(LD002)          this line (or, when the comment
//                                           stands alone, the next line)
//   // lockdown-lint: allow(LD002, LD007)   several rules at once
//   // lockdown-lint: disable-file(LD003)   whole file, any line
//
// Output: one `path:line: LDxxx: message` per violation on stdout, sorted;
// exit 0 when clean, 1 with violations, 2 on usage/IO errors.
//
// Scanned set: *.cc / *.h under <root>/src and <root>/tools.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct RuleInfo {
  std::string_view id;
  std::string_view name;
};

constexpr RuleInfo kRules[] = {
    {"LD001", "float-in-parallel-merge"},
    {"LD002", "unordered-iteration"},
    {"LD003", "nondeterministic-source"},
    {"LD007", "raw-mutex-primitive"},
    {"LD008", "raw-io-outside-shim"},
};

// ---------------------------------------------------------------------------
// Source model: raw text, stripped code (comments and literal contents
// blanked, layout preserved), suppressions.
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string rel;   // path relative to the scan root, '/'-separated
  std::string code;  // same length as raw: comments/literals blanked
  std::vector<std::size_t> line_starts;
  std::set<std::string> disabled_rules;            // disable-file()
  std::map<int, std::set<std::string>> line_allow;  // line -> allowed rules
};

struct Finding {
  std::string rel;
  int line = 0;
  std::string rule;
  std::string message;
};

bool IsWord(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int LineOf(const SourceFile& f, std::size_t offset) {
  const auto it = std::upper_bound(f.line_starts.begin(), f.line_starts.end(),
                                   offset);
  return static_cast<int>(it - f.line_starts.begin());
}

// Parses "lockdown-lint: allow(LD001, LD002)" / "disable-file(LD003)" out of
// one comment's text and applies it to the file.
void ApplySuppressionComment(SourceFile& f, const std::string& comment,
                             int line, bool comment_owns_line) {
  const auto apply = [&](std::string_view directive, bool file_level) {
    std::size_t pos = 0;
    while ((pos = comment.find(directive, pos)) != std::string::npos) {
      pos += directive.size();
      const std::size_t open = comment.find('(', pos);
      if (open == std::string::npos) return;
      const std::size_t close = comment.find(')', open);
      if (close == std::string::npos) return;
      std::string ids = comment.substr(open + 1, close - open - 1);
      std::stringstream ss(ids);
      std::string id;
      while (std::getline(ss, id, ',')) {
        id.erase(std::remove_if(id.begin(), id.end(),
                                [](char c) { return std::isspace(
                                    static_cast<unsigned char>(c)) != 0; }),
                 id.end());
        if (id.empty()) continue;
        if (file_level) {
          f.disabled_rules.insert(id);
        } else {
          f.line_allow[line].insert(id);
          // A comment standing on its own line covers the next line too.
          if (comment_owns_line) f.line_allow[line + 1].insert(id);
        }
      }
      pos = close;
    }
  };
  apply("lockdown-lint: disable-file", /*file_level=*/true);
  apply("lockdown-lint: allow", /*file_level=*/false);
}

// One-pass scanner: blanks comments and string/char contents (newlines kept
// so offsets and line numbers survive) and feeds suppression comments to the
// file.
SourceFile StripSource(std::string raw, std::string rel) {
  SourceFile f;
  f.rel = std::move(rel);
  f.code.assign(raw.size(), ' ');
  f.line_starts.push_back(0);

  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;        // raw-string closing delimiter: ")<delim>\""
  std::string comment_text;     // accumulated text of the current comment
  int comment_line = 0;
  bool line_has_code = false;   // any code before the comment on this line

  const auto finish_comment = [&](int line) {
    if (comment_text.find("lockdown-lint:") != std::string::npos) {
      ApplySuppressionComment(f, comment_text, line, !line_has_code);
    }
    comment_text.clear();
  };

  int line = 1;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
    if (c == '\n') {
      f.code[i] = '\n';
      if (state == State::kLine) {
        finish_comment(comment_line);
        state = State::kCode;
      }
      ++line;
      f.line_starts.push_back(i + 1);
      line_has_code = false;
      if (state == State::kBlock) comment_text += ' ';
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          comment_line = line;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          comment_line = line;
          ++i;
        } else if (c == '"') {
          // Raw string? look back for R / u8R / LR etc. ending in R.
          bool is_raw = i > 0 && raw[i - 1] == 'R' &&
                        (i < 2 || !IsWord(raw[i - 2]) || raw[i - 2] == '8' ||
                         raw[i - 2] == 'u' || raw[i - 2] == 'U' ||
                         raw[i - 2] == 'L');
          if (is_raw) {
            std::size_t p = i + 1;
            std::string delim;
            while (p < raw.size() && raw[p] != '(') delim += raw[p++];
            raw_delim = ")" + delim + "\"";
            state = State::kRaw;
            f.code[i] = '"';
            i = p;  // skip past '('
          } else {
            state = State::kString;
            f.code[i] = '"';
            line_has_code = true;
          }
        } else if (c == '\'') {
          state = State::kChar;
          f.code[i] = '\'';
          line_has_code = true;
        } else {
          f.code[i] = c;
          if (!std::isspace(static_cast<unsigned char>(c))) {
            line_has_code = true;
          }
        }
        break;
      case State::kLine:
        comment_text += c;
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          finish_comment(comment_line);
          state = State::kCode;
          ++i;
        } else {
          comment_text += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          f.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          f.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (raw.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          // Recount lines consumed by the delimiter (it has none, but the
          // loop's '\n' handling was bypassed for the literal body — lines
          // inside the raw string were already counted by the top of loop).
          f.code[i] = '"';
          state = State::kCode;
        }
        break;
    }
  }
  if (state == State::kLine || state == State::kBlock) finish_comment(comment_line);
  return f;
}

// ---------------------------------------------------------------------------
// Small matching helpers over stripped code
// ---------------------------------------------------------------------------

// Finds the next whole-word occurrence of `word` at or after `from`.
std::size_t FindWord(const std::string& code, std::string_view word,
                     std::size_t from) {
  std::size_t pos = from;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWord(code[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= code.size() || !IsWord(code[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string::npos;
}

// Given the offset of an opening bracket, returns the offset one past its
// matching closer, or npos.
std::size_t MatchBracket(const std::string& code, std::size_t open,
                         char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == open_ch) ++depth;
    if (code[i] == close_ch && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

// ---------------------------------------------------------------------------
// Findings sink with suppression handling
// ---------------------------------------------------------------------------

class Sink {
 public:
  void Report(const SourceFile& f, int line, std::string_view rule,
              std::string message) {
    if (f.disabled_rules.count(std::string(rule)) != 0) return;
    const auto it = f.line_allow.find(line);
    if (it != f.line_allow.end() && it->second.count(std::string(rule)) != 0) {
      return;
    }
    findings_.push_back({f.rel, line, std::string(rule), std::move(message)});
  }

  [[nodiscard]] std::vector<Finding> Sorted() {
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.rel != b.rel) return a.rel < b.rel;
                if (a.line != b.line) return a.line < b.line;
                if (a.rule != b.rule) return a.rule < b.rule;
                return a.message < b.message;
              });
    return findings_;
  }

 private:
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// LD001 — float/double in ParallelFor merge lambdas
// ---------------------------------------------------------------------------

void CheckFloatToken(const SourceFile& f, std::size_t begin, std::size_t end,
                     std::string_view context, Sink& sink) {
  for (const char* word : {"float", "double"}) {
    std::size_t pos = begin;
    while ((pos = FindWord(f.code, word, pos)) != std::string::npos &&
           pos < end) {
      sink.Report(f, LineOf(f, pos), "LD001",
                  std::string(word) + " " + std::string(context) +
                      " — keep accumulation integral until figure boundaries "
                      "(DESIGN §5)");
      pos += 1;
    }
  }
}

void RunLd001(const SourceFile& f, Sink& sink) {
  std::size_t pos = 0;
  while ((pos = FindWord(f.code, "ParallelFor", pos)) != std::string::npos) {
    const std::size_t call_open = f.code.find('(', pos);
    pos += 1;
    if (call_open == std::string::npos) continue;
    const std::size_t call_end =
        MatchBracket(f.code, call_open, '(', ')');
    if (call_end == std::string::npos) continue;
    // Every brace block inside the call's argument list is a lambda body.
    std::size_t scan = call_open;
    while (scan < call_end) {
      const std::size_t body_open = f.code.find('{', scan);
      if (body_open == std::string::npos || body_open >= call_end) break;
      const std::size_t body_end = MatchBracket(f.code, body_open, '{', '}');
      if (body_end == std::string::npos || body_end > call_end) break;
      CheckFloatToken(f, body_open, body_end,
                      "inside a ParallelFor lambda", sink);
      scan = body_end;
    }
    pos = call_end;
  }
}

// ---------------------------------------------------------------------------
// LD002 — unordered-container iteration in merge/serialization paths
// ---------------------------------------------------------------------------

// Collects names declared with std::unordered_map/set/... anywhere in the
// corpus (members, locals, parameters).
std::set<std::string> CollectUnorderedNames(
    const std::vector<SourceFile>& files) {
  std::set<std::string> names;
  constexpr std::string_view kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const SourceFile& f : files) {
    for (const std::string_view type : kTypes) {
      std::size_t pos = 0;
      while ((pos = FindWord(f.code, type, pos)) != std::string::npos) {
        std::size_t p = pos + type.size();
        pos += 1;
        while (p < f.code.size() &&
               std::isspace(static_cast<unsigned char>(f.code[p]))) {
          ++p;
        }
        if (p >= f.code.size() || f.code[p] != '<') continue;
        const std::size_t after_args = MatchBracket(f.code, p, '<', '>');
        if (after_args == std::string::npos) continue;
        p = after_args;
        while (p < f.code.size() &&
               (std::isspace(static_cast<unsigned char>(f.code[p])) ||
                f.code[p] == '&' || f.code[p] == '*')) {
          ++p;
        }
        std::string name;
        while (p < f.code.size() && IsWord(f.code[p])) name += f.code[p++];
        if (!name.empty() && std::isdigit(static_cast<unsigned char>(name[0])) == 0) {
          names.insert(name);
        }
      }
    }
  }
  return names;
}

bool NameIsOrderedPath(std::string_view fn_name) {
  constexpr std::string_view kMarkers[] = {"Merge",     "Flush", "Encode",
                                           "Serialize", "Write", "Save",
                                           "Snapshot"};
  for (const std::string_view m : kMarkers) {
    if (fn_name.find(m) != std::string_view::npos) return true;
  }
  return false;
}

// Scans [begin, end) for range-based fors whose range expression mentions a
// known unordered container name.
void CheckRangeFors(const SourceFile& f, std::size_t begin, std::size_t end,
                    const std::set<std::string>& unordered,
                    std::string_view context, Sink& sink) {
  std::size_t pos = begin;
  while ((pos = FindWord(f.code, "for", pos)) != std::string::npos &&
         pos < end) {
    const std::size_t open = f.code.find('(', pos);
    pos += 1;
    if (open == std::string::npos || open >= end) continue;
    const std::size_t close = MatchBracket(f.code, open, '(', ')');
    if (close == std::string::npos) continue;
    // Find a ':' at paren depth 1 that is not part of '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = open; i < close; ++i) {
      const char c = f.code[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ':' && depth == 1) {
        const bool dbl = (i + 1 < close && f.code[i + 1] == ':') ||
                         (i > open && f.code[i - 1] == ':');
        if (!dbl) {
          colon = i;
          break;
        }
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range_expr =
        f.code.substr(colon + 1, close - colon - 2);
    for (const std::string& name : unordered) {
      if (FindWord(range_expr, name, 0) != std::string::npos) {
        sink.Report(f, LineOf(f, colon), "LD002",
                    "iteration over unordered container '" + name + "' " +
                        std::string(context) +
                        " — hash order is not deterministic; sort first or "
                        "use an ordered structure (DESIGN §5)");
        break;
      }
    }
  }
}

void RunLd002(const std::vector<SourceFile>& files, Sink& sink) {
  const std::set<std::string> unordered = CollectUnorderedNames(files);
  if (unordered.empty()) return;
  for (const SourceFile& f : files) {
    if (StartsWith(f.rel, "src/store/")) {
      CheckRangeFors(f, 0, f.code.size(), unordered,
                     "in a serialization TU (src/store)", sink);
      continue;
    }
    // Function definitions whose name marks a merge/serialization path.
    std::size_t pos = 0;
    while (pos < f.code.size()) {
      // Find an identifier followed by '('.
      while (pos < f.code.size() && !IsWord(f.code[pos])) ++pos;
      std::size_t word_end = pos;
      while (word_end < f.code.size() && IsWord(f.code[word_end])) ++word_end;
      if (word_end == pos) break;
      const std::string name = f.code.substr(pos, word_end - pos);
      std::size_t p = word_end;
      while (p < f.code.size() &&
             std::isspace(static_cast<unsigned char>(f.code[p]))) {
        ++p;
      }
      if (p < f.code.size() && f.code[p] == '(' && NameIsOrderedPath(name)) {
        const std::size_t params_end = MatchBracket(f.code, p, '(', ')');
        if (params_end != std::string::npos) {
          // A definition if a '{' appears before the next ';'.
          const std::size_t semi = f.code.find(';', params_end);
          const std::size_t brace = f.code.find('{', params_end);
          if (brace != std::string::npos &&
              (semi == std::string::npos || brace < semi)) {
            const std::size_t body_end = MatchBracket(f.code, brace, '{', '}');
            if (body_end != std::string::npos) {
              CheckRangeFors(f, brace, body_end, unordered,
                             "in merge/serialization function '" + name + "'",
                             sink);
              pos = brace + 1;  // allow nested definitions to be re-found
              continue;
            }
          }
        }
      }
      pos = word_end;
    }
  }
}

// ---------------------------------------------------------------------------
// LD003 — nondeterministic sources outside util/rng
// ---------------------------------------------------------------------------

void RunLd003(const SourceFile& f, Sink& sink) {
  if (StartsWith(f.rel, "src/util/rng")) return;
  // Banned as a call: name immediately applied.
  constexpr std::string_view kCalls[] = {"rand", "srand", "rand_r", "drand48",
                                         "time", "clock"};
  for (const std::string_view word : kCalls) {
    std::size_t pos = 0;
    while ((pos = FindWord(f.code, word, pos)) != std::string::npos) {
      std::size_t p = pos + word.size();
      const std::size_t hit = pos;
      pos += 1;
      while (p < f.code.size() &&
             std::isspace(static_cast<unsigned char>(f.code[p]))) {
        ++p;
      }
      if (p >= f.code.size() || f.code[p] != '(') continue;
      // Member calls (x.time(), x->clock()) are someone else's API; only
      // free/std calls are the libc randomness/wall-clock surface.
      std::size_t q = hit;
      while (q > 0 && std::isspace(static_cast<unsigned char>(f.code[q - 1]))) {
        --q;
      }
      if (q > 0 && (f.code[q - 1] == '.' ||
                    (q > 1 && f.code[q - 2] == '-' && f.code[q - 1] == '>'))) {
        continue;
      }
      sink.Report(f, LineOf(f, hit), "LD003",
                  "call to '" + std::string(word) +
                      "' — all randomness/wall-clock reads go through "
                      "util/rng (DESIGN §5)");
    }
  }
  // Banned as any mention: types whose construction is the hazard.
  constexpr std::string_view kTypes[] = {"random_device", "system_clock",
                                         "random_shuffle", "getrandom"};
  for (const std::string_view word : kTypes) {
    std::size_t pos = 0;
    while ((pos = FindWord(f.code, word, pos)) != std::string::npos) {
      sink.Report(f, LineOf(f, pos), "LD003",
                  "use of '" + std::string(word) +
                      "' — all randomness/wall-clock reads go through "
                      "util/rng (DESIGN §5)");
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// LD008 — raw file IO outside the io::File shim (src/store, src/ingest)
// ---------------------------------------------------------------------------

void RunLd008(const SourceFile& f, Sink& sink) {
  if (!StartsWith(f.rel, "src/store/") && !StartsWith(f.rel, "src/ingest/")) {
    return;
  }
  // File syscalls, banned when called at global scope (`::name(...)`) —
  // that spelling is how this tree invokes the raw kernel surface. mmap/
  // munmap stay legal: mapping is a memory operation the shim hands off
  // after opening through io::File.
  constexpr std::string_view kSyscalls[] = {
      "open",   "openat",   "creat",     "read",     "pread",
      "readv",  "write",    "pwrite",    "writev",   "fsync",
      "fdatasync", "sync_file_range",    "rename",   "renameat",
      "ftruncate", "truncate", "close",  "unlink",   "unlinkat"};
  for (const std::string_view word : kSyscalls) {
    std::size_t pos = 0;
    while ((pos = FindWord(f.code, word, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += 1;
      // Global-scope qualifier only: `::open(` but not `io::...` or `File::`.
      if (hit < 2 || f.code.compare(hit - 2, 2, "::") != 0) continue;
      if (hit >= 3 && (IsWord(f.code[hit - 3]) || f.code[hit - 3] == ':')) {
        continue;
      }
      std::size_t p = hit + word.size();
      while (p < f.code.size() &&
             std::isspace(static_cast<unsigned char>(f.code[p]))) {
        ++p;
      }
      if (p >= f.code.size() || f.code[p] != '(') continue;
      sink.Report(f, LineOf(f, hit), "LD008",
                  "raw ::" + std::string(word) +
                      " in the crash-safe zone — route file IO through "
                      "io::File (src/io/io.h) so fault injection, retry and "
                      "crash points cover it (DESIGN §12)");
    }
  }
  // iostream file types and C stdio openers: banned on any mention (an
  // #include <fstream> counts — there is nothing legitimate to do with it
  // here).
  constexpr std::string_view kStreamTokens[] = {"ofstream", "ifstream",
                                                "fstream", "fopen", "freopen"};
  for (const std::string_view word : kStreamTokens) {
    std::size_t pos = 0;
    while ((pos = FindWord(f.code, word, pos)) != std::string::npos) {
      sink.Report(f, LineOf(f, pos), "LD008",
                  "use of '" + std::string(word) +
                      "' in the crash-safe zone — route file IO through "
                      "io::File (src/io/io.h) so fault injection, retry and "
                      "crash points cover it (DESIGN §12)");
      pos += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// LD007 — raw lock primitives outside util/mutex.h
// ---------------------------------------------------------------------------

void RunLd007(const SourceFile& f, Sink& sink) {
  if (f.rel == "src/util/mutex.h") return;  // the one sanctioned wrapper
  constexpr std::string_view kBanned[] = {
      "mutex",          "recursive_mutex", "shared_mutex", "timed_mutex",
      "lock_guard",     "unique_lock",     "scoped_lock",  "shared_lock",
      "condition_variable", "condition_variable_any"};
  for (const std::string_view word : kBanned) {
    std::size_t pos = 0;
    while ((pos = FindWord(f.code, word, pos)) != std::string::npos) {
      const std::size_t hit = pos;
      pos += 1;
      // Only the std:: spellings: the qualifier must immediately precede.
      if (hit < 5 || f.code.compare(hit - 5, 5, "std::") != 0) continue;
      sink.Report(f, LineOf(f, hit), "LD007",
                  "raw std::" + std::string(word) +
                      " — use the annotated util::Mutex/MutexLock/CondVar "
                      "(src/util/mutex.h) so thread-safety analysis sees it");
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool ShouldScan(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

int Run(const fs::path& root, const std::set<std::string>& only_rules) {
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tools"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !ShouldScan(entry.path())) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "lockdown_lint: cannot read %s\n",
                     entry.path().c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      std::string rel = fs::relative(entry.path(), root).generic_string();
      files.push_back(StripSource(ss.str(), std::move(rel)));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.rel < b.rel; });

  const auto enabled = [&](std::string_view id) {
    return only_rules.empty() || only_rules.count(std::string(id)) != 0;
  };

  Sink sink;
  for (const SourceFile& f : files) {
    if (enabled("LD001")) RunLd001(f, sink);
    if (enabled("LD003")) RunLd003(f, sink);
    if (enabled("LD007")) RunLd007(f, sink);
    if (enabled("LD008")) RunLd008(f, sink);
  }
  if (enabled("LD002")) RunLd002(files, sink);

  const std::vector<Finding> findings = sink.Sorted();
  for (const Finding& v : findings) {
    std::printf("%s:%d: %s: %s\n", v.rel.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "lockdown_lint: %zu violation(s)\n", findings.size());
    return 1;
  }
  return 0;
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: lockdown_lint [--root DIR] [--rules LD001,LD002,...]\n"
               "       lockdown_lint --list-rules\n"
               "\n"
               "Checks the lockdown determinism & lock-discipline contracts\n"
               "over DIR/src and DIR/tools (default DIR: .). Exit 0 clean,\n"
               "1 with violations, 2 on usage/IO error.\n");
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::set<std::string> only_rules;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        PrintUsage(stderr);
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--rules") {
      if (i + 1 >= argc) {
        PrintUsage(stderr);
        return 2;
      }
      std::stringstream ss(argv[++i]);
      std::string id;
      while (std::getline(ss, id, ',')) {
        if (!id.empty()) only_rules.insert(id);
      }
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::printf("%s %s\n", std::string(r.id).c_str(),
                    std::string(r.name).c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "lockdown_lint: unknown argument: %s\n",
                   std::string(arg).c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  for (const std::string& id : only_rules) {
    const bool known =
        std::any_of(std::begin(kRules), std::end(kRules),
                    [&](const RuleInfo& r) { return r.id == id; });
    if (!known) {
      std::fprintf(stderr, "lockdown_lint: unknown rule id: %s\n", id.c_str());
      return 2;
    }
  }
  if (!fs::exists(root)) {
    std::fprintf(stderr, "lockdown_lint: no such root: %s\n", root.c_str());
    return 2;
  }
  return Run(root, only_rules);
}
