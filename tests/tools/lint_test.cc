// End-to-end tests for tools/lint/lockdown_lint: the fixture corpus under
// tests/tools/lint_fixtures/<RULE>/{good,bad} is the executable spec of each
// rule — every bad tree must be caught with the exact file:line/rule/message
// output frozen in its expected.txt, every good tree (which exercises the
// sanctioned idioms and suppression comments) must be clean — and the real
// source tree itself must lint clean.
//
// Build-time configuration (see tests/CMakeLists.txt):
//   LOCKDOWN_LINT_BIN       absolute path of the built lockdown_lint binary
//   LOCKDOWN_LINT_FIXTURES  absolute path of the fixture corpus
//   LOCKDOWN_SOURCE_ROOT    absolute path of the repository root

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <sys/wait.h>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string out;
};

// Runs the linter with `args`, capturing stdout; stderr (the violation-count
// summary) is dropped so assertions see only the findings stream.
RunResult RunLint(const std::string& args) {
  const std::string cmd =
      std::string(LOCKDOWN_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) r.out.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// True when `line` has the finding shape ^[-\w./]+:\d+: LD\d{3}: .+$ in
// ECMAScript regex terms (\w is [A-Za-z0-9_]; `.` is any character but a
// line terminator). Hand-written: libstdc++'s std::regex trips GCC's
// -Werror=maybe-uninitialized when built with -fsanitize=address.
bool IsFindingLine(std::string_view line) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  const auto path_char = [&digit](char c) {
    return digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           c == '_' || c == '-' || c == '.' || c == '/';
  };
  std::size_t i = 0;
  // Consumes one or more characters satisfying `pred`.
  const auto run = [&](auto pred) {
    const std::size_t begin = i;
    while (i < line.size() && pred(line[i])) ++i;
    return i > begin;
  };
  // Consumes the literal `lit`.
  const auto lit = [&](std::string_view text) {
    if (line.substr(i, text.size()) != text) return false;
    i += text.size();
    return true;
  };
  if (!run(path_char) || !lit(":") || !run(digit) || !lit(": LD")) return false;
  for (int k = 0; k < 3; ++k) {
    if (i >= line.size() || !digit(line[i])) return false;
    ++i;
  }
  if (!lit(": ") || i == line.size()) return false;
  return line.find_first_of("\r\n", i) == std::string_view::npos;
}

TEST(LockdownLint, FindingShapeMatcher) {
  for (const char* good :
       {"src/core/agg.cc:7: LD001: double inside a ParallelFor lambda",
        "a:1: LD123: x", "-_./Az09:42: LD000: message: with colons"}) {
    EXPECT_TRUE(IsFindingLine(good)) << good;
  }
  for (const char* bad :
       {"", "src/a.cc:7: LD001: ", "src/a.cc:7: LD001:x", "src/a.cc:: LD001: x",
        ":7: LD001: x", "src a.cc:7: LD001: x", "src/a.cc:7x: LD001: x",
        "src/a.cc:7: LD01: x", "src/a.cc:7: LD0012: x", "src/a.cc:7: LX001: x",
        "src/a.cc:7 LD001: x", "src/a.cc:7: LD001: x\r", "src/a:b.cc:7: LD001: x"}) {
    EXPECT_FALSE(IsFindingLine(bad)) << bad;
  }
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in.is_open()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::set<std::string> ListedRuleIds() {
  const RunResult r = RunLint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  std::set<std::string> ids;
  for (const std::string& line : Lines(r.out)) {
    ids.insert(line.substr(0, line.find(' ')));
  }
  return ids;
}

std::set<std::string> FixtureRuleDirs() {
  std::set<std::string> dirs;
  for (const auto& entry : fs::directory_iterator(LOCKDOWN_LINT_FIXTURES)) {
    if (entry.is_directory()) dirs.insert(entry.path().filename().string());
  }
  return dirs;
}

// Every registered rule has a good+bad fixture pair (so a newly added rule
// cannot ship untested), and every fixture directory names a live rule (so a
// removed rule cannot leave a stale spec behind).
TEST(LockdownLint, FixtureCorpusCoversExactlyTheRegisteredRules) {
  const std::set<std::string> rules = ListedRuleIds();
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(rules, FixtureRuleDirs());
  for (const std::string& rule : rules) {
    const fs::path dir = fs::path(LOCKDOWN_LINT_FIXTURES) / rule;
    EXPECT_TRUE(fs::is_directory(dir / "good")) << rule;
    EXPECT_TRUE(fs::is_directory(dir / "bad")) << rule;
    EXPECT_TRUE(fs::is_regular_file(dir / "bad" / "expected.txt")) << rule;
  }
}

TEST(LockdownLint, BadFixturesProduceExactlyTheFrozenFindings) {
  for (const std::string& rule : ListedRuleIds()) {
    const fs::path dir = fs::path(LOCKDOWN_LINT_FIXTURES) / rule / "bad";
    const RunResult r = RunLint("--root " + dir.string());
    EXPECT_EQ(r.exit_code, 1) << rule;
    EXPECT_EQ(r.out, ReadFile(dir / "expected.txt")) << rule;
    const std::vector<std::string> lines = Lines(r.out);
    ASSERT_FALSE(lines.empty()) << rule;
    bool rule_seen = false;
    for (const std::string& line : lines) {
      EXPECT_TRUE(IsFindingLine(line)) << rule << ": " << line;
      rule_seen = rule_seen || line.find(": " + rule + ": ") != std::string::npos;
    }
    EXPECT_TRUE(rule_seen) << rule << " bad fixture never triggers " << rule;
  }
}

TEST(LockdownLint, GoodFixturesAreClean) {
  for (const std::string& rule : ListedRuleIds()) {
    const fs::path dir = fs::path(LOCKDOWN_LINT_FIXTURES) / rule / "good";
    const RunResult r = RunLint("--root " + dir.string());
    EXPECT_EQ(r.exit_code, 0) << rule << ":\n" << r.out;
    EXPECT_EQ(r.out, "") << rule;
  }
}

TEST(LockdownLint, RuleFilterRestrictsFindings) {
  // The LD003 bad tree checked with only LD007 enabled must be clean, and
  // with LD003 enabled must reproduce its frozen findings.
  const fs::path dir = fs::path(LOCKDOWN_LINT_FIXTURES) / "LD003" / "bad";
  EXPECT_EQ(RunLint("--rules LD007 --root " + dir.string()).exit_code, 0);
  const RunResult r = RunLint("--rules LD003 --root " + dir.string());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.out, ReadFile(dir / "expected.txt"));
}

// Proves the suppression comments actually suppress — the same violating
// line is written three times (bare, line-allow, file-disable) and only the
// bare variant may be reported.
TEST(LockdownLint, SuppressionCommentsSilenceFindings) {
  const fs::path root = fs::path(testing::TempDir()) / "lint_suppression_fx";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  const auto write = [&](const char* name, const char* body) {
    std::ofstream out(root / "src" / "core" / name);
    out << body;
  };
  write("bare.cc", "void F() { int x = rand(); }\n");
  write("line_allow.cc",
        "void F() { int x = rand(); }  // lockdown-lint: allow(LD003)\n");
  write("next_line_allow.cc",
        "// lockdown-lint: allow(LD003)\nvoid F() { int x = rand(); }\n");
  write("file_disable.cc",
        "// lockdown-lint: disable-file(LD003)\n"
        "void F() { int x = rand(); }\n"
        "void G() { int y = rand(); }\n");
  const RunResult r = RunLint("--root " + root.string());
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<std::string> lines = Lines(r.out);
  ASSERT_EQ(lines.size(), 1u) << r.out;
  EXPECT_NE(lines[0].find("src/core/bare.cc:1: LD003:"), std::string::npos)
      << lines[0];
  fs::remove_all(root);
}

// An allow() for one rule must not leak onto another rule on the same line.
TEST(LockdownLint, SuppressionIsPerRule) {
  const fs::path root = fs::path(testing::TempDir()) / "lint_per_rule_fx";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  {
    std::ofstream out(root / "src" / "core" / "mixed.cc");
    out << "std::mutex g;  // lockdown-lint: allow(LD003)\n";
  }
  const RunResult r = RunLint("--root " + root.string());
  EXPECT_EQ(r.exit_code, 1);
  const std::vector<std::string> lines = Lines(r.out);
  ASSERT_EQ(lines.size(), 1u) << r.out;
  EXPECT_NE(lines[0].find("LD007"), std::string::npos) << lines[0];
  fs::remove_all(root);
}

TEST(LockdownLint, UnknownArgumentsAndRulesExitTwo) {
  EXPECT_EQ(RunLint("--no-such-flag").exit_code, 2);
  EXPECT_EQ(RunLint("--rules LD999").exit_code, 2);
  EXPECT_EQ(RunLint("--root /no/such/dir/anywhere").exit_code, 2);
}

// The teeth: the actual source tree carries zero violations. Any new
// contract breach in src/ or tools/ fails this test, not just check.sh.
TEST(LockdownLint, RealSourceTreeIsClean) {
  const RunResult r = RunLint("--root " LOCKDOWN_SOURCE_ROOT);
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_EQ(r.out, "") << r.out;
}

}  // namespace
