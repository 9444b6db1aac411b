// Streaming line-driver tests for the four log readers:
//
//  * chunk invariance — over the util::FaultInjector corpus (seeds {1,2,3} x
//    every fault kind, plus blank lines and unterminated and whitespace
//    tails), feeding a document as one piece, as 1-byte pieces and as
//    seeded random splits gives identical records, report counts, per-class
//    counts, samples, header verdicts and quarantine bytes, in both modes;
//  * differential — the same corpus against a local copy of the historical
//    whole-document ParseLog (util::Split over the text): identical except
//    for the corrected truncated-tail rule;
//  * file paths — reads through ingest::ReadLogFile (bounded chunks) for
//    lines that straddle or exceed a chunk, empty and header-only files,
//    CRLF endings, a missing trailing newline and io::File shim faults.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "flow/conn_log.h"
#include "ingest/ingest.h"
#include "io/fault.h"
#include "io/io.h"
#include "logs/dhcp_log.h"
#include "logs/dns_log.h"
#include "logs/ua_log.h"
#include "util/fault.h"
#include "util/strings.h"

namespace lockdown {
namespace {

namespace fs = std::filesystem;

// --- Record keys: exact, comparable renderings of each record type ---------

std::string Key(const flow::FlowRecord& r) {
  std::ostringstream out;
  out << r.start << '|' << std::bit_cast<std::uint64_t>(r.duration_s) << '|'
      << r.client_ip.value() << '|' << r.server_ip.value() << '|'
      << r.server_port << '|' << static_cast<int>(r.proto) << '|' << r.bytes_up
      << '|' << r.bytes_down;
  return out.str();
}

std::string Key(const dhcp::Lease& r) {
  std::ostringstream out;
  out << r.start << '|' << r.end << '|' << r.mac.ToString() << '|'
      << r.ip.value();
  return out.str();
}

std::string Key(const dns::Resolution& r) {
  std::ostringstream out;
  out << r.ts << '|' << r.client.ToString() << '|' << r.qname << '|'
      << r.answer.value() << '|' << r.ttl;
  return out.str();
}

std::string Key(const logs::UaRecord& r) {
  std::ostringstream out;
  out << r.ts << '|' << r.client_ip.value() << '|' << r.user_agent;
  return out.str();
}

// --- Clean documents from the real writers ---------------------------------

constexpr int kRows = 120;

net::Ipv4Address RandomIp(std::mt19937_64& rng) {
  return net::Ipv4Address(static_cast<std::uint32_t>(rng()));
}

net::MacAddress RandomMac(std::mt19937_64& rng) {
  return net::MacAddress(rng() & 0xFFFFFFFFFFFFULL);
}

std::string RandomText(std::mt19937_64& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789-. /";
  std::string s(1 + rng() % max_len, 'x');
  for (char& c : s) c = kAlphabet[rng() % (sizeof kAlphabet - 1)];
  return s;
}

struct ConnReader {
  using Format = flow::ConnLogFormat;
  static std::string CleanDoc(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<flow::FlowRecord> rows(kRows);
    for (auto& r : rows) {
      r.start = static_cast<util::Timestamp>(rng() % 2'000'000'000);
      r.duration_s = static_cast<double>(rng() % 100'000) / 8.0;
      r.client_ip = RandomIp(rng);
      r.server_ip = RandomIp(rng);
      r.server_port = static_cast<net::Port>(rng());
      r.proto = rng() % 2 == 0 ? net::Protocol::kTcp : net::Protocol::kUdp;
      r.bytes_up = rng() % 1'000'000;
      r.bytes_down = rng() % 1'000'000;
    }
    std::ostringstream out;
    flow::WriteConnLog(out, rows);
    return out.str();
  }
  static auto Read(std::string_view text, const ingest::IngestOptions& o,
                   ingest::IngestReport& r) {
    return flow::ReadConnLog(text, o, r);
  }
};

struct DhcpReader {
  using Format = logs::DhcpLogFormat;
  static std::string CleanDoc(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<dhcp::Lease> rows(kRows);
    for (auto& r : rows) {
      r.mac = RandomMac(rng);
      r.ip = RandomIp(rng);
      r.start = static_cast<util::Timestamp>(rng() % 2'000'000'000);
      r.end = r.start + static_cast<util::Timestamp>(rng() % 86'400);
    }
    std::ostringstream out;
    logs::WriteDhcpLog(out, rows);
    return out.str();
  }
  static auto Read(std::string_view text, const ingest::IngestOptions& o,
                   ingest::IngestReport& r) {
    return logs::ReadDhcpLog(text, o, r);
  }
};

struct DnsReader {
  using Format = logs::DnsLogFormat;
  static std::string CleanDoc(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<dns::Resolution> rows(kRows);
    for (auto& r : rows) {
      r.ts = static_cast<util::Timestamp>(rng() % 2'000'000'000);
      r.client = RandomMac(rng);
      r.qname = RandomText(rng, 30);
      for (char& c : r.qname) c = c == ' ' || c == '/' ? 'q' : c;
      r.answer = RandomIp(rng);
      r.ttl = static_cast<std::int32_t>(rng() % 86'400);
    }
    std::ostringstream out;
    logs::WriteDnsLog(out, rows);
    return out.str();
  }
  static auto Read(std::string_view text, const ingest::IngestOptions& o,
                   ingest::IngestReport& r) {
    return logs::ReadDnsLog(text, o, r);
  }
};

struct UaReader {
  using Format = logs::UaLogFormat;
  static std::string CleanDoc(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<logs::UaRecord> rows(kRows);
    for (auto& r : rows) {
      r.ts = static_cast<util::Timestamp>(rng() % 2'000'000'000);
      r.client_ip = RandomIp(rng);
      r.user_agent = "Mozilla/5.0 (" + RandomText(rng, 60) + ")";
    }
    std::ostringstream out;
    logs::WriteUaLog(out, rows);
    return out.str();
  }
  static auto Read(std::string_view text, const ingest::IngestOptions& o,
                   ingest::IngestReport& r) {
    return logs::ReadUaLog(text, o, r);
  }
};

// --- Outcomes ---------------------------------------------------------------

/// Everything observable about one read, in comparable form.
struct Outcome {
  bool accepted = false;
  std::vector<std::string> records;
  std::uint64_t lines_total = 0;
  std::uint64_t kept = 0;
  std::uint64_t rejected = 0;
  std::vector<std::uint64_t> by_class;
  bool header_ok = false;
  std::vector<std::string> samples;  // "line:class:text"
  std::string quarantine;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::ostream& operator<<(std::ostream& out, const Outcome& o) {
  out << "{accepted=" << o.accepted << " records=" << o.records.size()
      << " total=" << o.lines_total << " kept=" << o.kept
      << " rejected=" << o.rejected << " header_ok=" << o.header_ok
      << " by_class=[";
  for (const auto n : o.by_class) out << n << ' ';
  out << "] samples=[";
  for (const auto& s : o.samples) out << s << "; ";
  return out << "] quarantine=" << o.quarantine.size() << "B}";
}

/// A scratch directory per test process, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view tag)
      : path_(fs::temp_directory_path() /
              ("lockdown_ingest_stream_" + std::string(tag) + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void Spit(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ingest::IngestOptions Options(ingest::Mode mode, const fs::path& quarantine) {
  ingest::IngestOptions options;
  options.mode = mode;
  options.max_error_rate = 1.0;  // observe every rejection, never the budget
  options.quarantine_dir = quarantine;
  options.source = "doc";
  return options;
}

/// Runs `read(options, report)` with a fresh quarantine directory and
/// captures the outcome (the quarantine file's bytes included).
template <typename ReadFn>
Outcome Capture(ingest::Mode mode, const fs::path& scratch, ReadFn&& read) {
  const fs::path quarantine = scratch / "q";
  fs::remove_all(quarantine);
  ingest::IngestReport report;
  const auto records = read(Options(mode, quarantine), report);
  Outcome o;
  o.accepted = records.has_value();
  if (records) {
    for (const auto& r : *records) o.records.push_back(Key(r));
  }
  o.lines_total = report.lines_total;
  o.kept = report.kept;
  o.rejected = report.rejected;
  o.by_class.assign(std::begin(report.by_class), std::end(report.by_class));
  o.header_ok = report.header_ok;
  for (const auto& s : report.samples) {
    o.samples.push_back(std::to_string(s.line) + ":" + ingest::ToString(s.error) +
                        ":" + s.text);
  }
  if (!report.quarantine_file.empty()) o.quarantine = Slurp(report.quarantine_file);
  fs::remove_all(quarantine);
  return o;
}

/// Feeds `doc` to a LogReader in pieces whose ends are `cuts` (ascending).
template <typename Format>
auto FeedPieces(std::string_view doc, const std::vector<std::size_t>& cuts,
                const ingest::IngestOptions& options, ingest::IngestReport& report) {
  ingest::LogReader<Format> reader(options, report, doc.size());
  std::size_t begin = 0;
  for (const std::size_t end : cuts) {
    reader.Feed(doc.substr(begin, end - begin));
    begin = end;
  }
  reader.Feed(doc.substr(begin));
  return reader.Finish();
}

std::vector<std::size_t> ByteCuts(std::size_t size) {
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < size; ++i) cuts.push_back(i);
  return cuts;
}

std::vector<std::size_t> RandomCuts(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> cuts;
  for (std::size_t at = 0; size > 0;) {
    at += 1 + rng() % 97;
    if (at >= size) break;
    cuts.push_back(at);
  }
  return cuts;
}

/// `doc` with an empty and a whitespace-only line inserted before each of
/// its first two rows (line numbers must count blank lines too).
std::string WithBlankLines(const std::string& doc) {
  std::string out;
  int inserted = 0;
  for (std::size_t begin = 0; begin < doc.size();) {
    const std::size_t nl = doc.find('\n', begin);
    const std::size_t end = nl == std::string::npos ? doc.size() : nl + 1;
    if (begin > 0 && inserted++ < 2) out += "\n \t\r\n";
    out.append(doc, begin, end - begin);
    begin = end;
  }
  return out;
}

/// The fault corpus for one reader: the clean export (with and without
/// interior blank lines), every (seed, kind) fault of each, and each of
/// those with its trailing newline removed and with an unterminated
/// whitespace tail appended.
template <typename Reader>
std::vector<std::string> Corpus() {
  std::vector<std::string> bases;
  for (const std::string& clean :
       {Reader::CleanDoc(42), WithBlankLines(Reader::CleanDoc(43))}) {
    bases.push_back(clean);
    for (const std::uint64_t seed : {1, 2, 3}) {
      const util::FaultInjector injector(util::FaultConfig{seed, 0.05});
      for (int k = 0; k < util::kNumFaultKinds; ++k) {
        bases.push_back(injector.Apply(clean, static_cast<util::FaultKind>(k)));
      }
    }
  }
  std::vector<std::string> corpus;
  for (const std::string& doc : bases) {
    corpus.push_back(doc);
    if (!doc.empty() && doc.back() == '\n') {
      corpus.push_back(doc.substr(0, doc.size() - 1));
    }
    corpus.push_back(doc + "  \t ");
  }
  return corpus;
}

constexpr ingest::Mode kModes[] = {ingest::Mode::kStrict, ingest::Mode::kTolerant};

template <typename Reader>
void ExpectChunkInvariance(std::string_view tag) {
  using Format = typename Reader::Format;
  const ScratchDir scratch(tag);
  const auto corpus = Corpus<Reader>();
  std::uint64_t rejected_seen = 0;
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    const std::string& doc = corpus[d];
    for (const ingest::Mode mode : kModes) {
      SCOPED_TRACE(std::string(tag) + " doc " + std::to_string(d) + " " +
                   ingest::ToString(mode));
      const Outcome whole = Capture(mode, scratch.path(), [&](auto o, auto& r) {
        return Reader::Read(doc, o, r);
      });
      const Outcome bytes = Capture(mode, scratch.path(), [&](auto o, auto& r) {
        return FeedPieces<Format>(doc, ByteCuts(doc.size()), o, r);
      });
      EXPECT_EQ(bytes, whole);
      for (const std::uint64_t seed : {7, 8, 9}) {
        const Outcome split = Capture(mode, scratch.path(), [&](auto o, auto& r) {
          return FeedPieces<Format>(doc, RandomCuts(doc.size(), seed + d), o, r);
        });
        EXPECT_EQ(split, whole) << "split seed " << seed;
      }
      rejected_seen += whole.rejected;
    }
  }
  EXPECT_GT(rejected_seen, 0u) << "the corpus must exercise rejections";
}

TEST(IngestStream, ConnLogChunkInvariance) {
  ExpectChunkInvariance<ConnReader>("conn");
}

TEST(IngestStream, DhcpLogChunkInvariance) {
  ExpectChunkInvariance<DhcpReader>("dhcp");
}

TEST(IngestStream, DnsLogChunkInvariance) {
  ExpectChunkInvariance<DnsReader>("dns");
}

TEST(IngestStream, UaLogChunkInvariance) {
  ExpectChunkInvariance<UaReader>("ua");
}

// --- Differential against the historical whole-document driver -------------

/// The whole-document ParseLog the streaming driver replaced, kept verbatim
/// apart from taking the row parser and header from a Format.
template <typename Format>
std::optional<std::vector<typename Format::Record>> LegacyParseLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report) {
  using Record = typename Format::Record;
  using ingest::ErrorClass;
  report = ingest::IngestReport{};
  report.source = options.source;

  const auto lines = util::Split(text, '\n');
  const bool ends_with_newline = !text.empty() && text.back() == '\n';
  std::size_t last_content = lines.size();
  for (std::size_t i = lines.size(); i-- > 0;) {
    if (!util::Trim(lines[i]).empty()) {
      last_content = i;
      break;
    }
  }
  const bool has_content = last_content != lines.size();
  const bool have_header =
      has_content && !lines.empty() && util::Trim(lines[0]) == Format::kHeader;
  report.header_ok = have_header;
  if (!have_header && options.mode == ingest::Mode::kStrict) return std::nullopt;

  ingest::detail::QuarantineWriter quarantine(options);
  std::vector<Record> out;
  for (std::size_t i = have_header ? 1 : 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (util::Trim(line).empty()) continue;
    ++report.lines_total;

    Record rec;
    std::optional<ErrorClass> err =
        i == 0 && !have_header ? std::optional<ErrorClass>(ErrorClass::kBadHeader)
                               : Format::ParseRow(line, rec);
    if (err && *err != ErrorClass::kBadHeader && i == last_content &&
        !ends_with_newline) {
      err = ErrorClass::kTruncatedLine;
    }
    if (!err) {
      ++report.kept;
      out.push_back(std::move(rec));
      continue;
    }

    ++report.rejected;
    ++report.by_class[static_cast<int>(*err)];
    if (report.samples.size() < options.max_samples) {
      report.samples.push_back(ingest::RejectedLine{
          static_cast<std::uint64_t>(i) + 1, *err,
          std::string(line.substr(0, ingest::detail::kSampleClamp))});
    }
    quarantine.Add(line);
    if (options.mode == ingest::Mode::kStrict) {
      quarantine.Finish(report);
      return std::nullopt;
    }
  }
  quarantine.Finish(report);

  if (options.mode == ingest::Mode::kTolerant &&
      report.error_rate() > options.max_error_rate) {
    return std::nullopt;
  }
  return out;
}

/// True when the document ends in an unterminated whitespace-only segment:
/// the one shape where the legacy driver called the last non-blank line a
/// truncated tail and the streaming driver does not.
bool HasBlankUnterminatedTail(std::string_view doc) {
  const std::size_t nl = doc.rfind('\n');
  const std::string_view tail = nl == std::string_view::npos ? doc : doc.substr(nl + 1);
  return !tail.empty() && util::Trim(tail).empty();
}

template <typename Reader>
void ExpectLegacyParity(std::string_view tag) {
  using Format = typename Reader::Format;
  const ScratchDir scratch(tag);
  int blank_tails = 0;
  for (const std::string& doc : Corpus<Reader>()) {
    // A blank unterminated tail no longer counts as the end of the last
    // row: the legacy verdict is the one it gave with that row terminated.
    const bool blank_tail = HasBlankUnterminatedTail(doc);
    blank_tails += blank_tail;
    const std::string legacy_doc = blank_tail ? doc + "\n" : doc;
    for (const ingest::Mode mode : kModes) {
      SCOPED_TRACE(std::string(tag) + " " + ingest::ToString(mode));
      const Outcome legacy = Capture(mode, scratch.path(), [&](auto o, auto& r) {
        return LegacyParseLog<Format>(legacy_doc, o, r);
      });
      const Outcome now = Capture(mode, scratch.path(), [&](auto o, auto& r) {
        return Reader::Read(doc, o, r);
      });
      EXPECT_EQ(now, legacy);
    }
  }
  EXPECT_GT(blank_tails, 0);
}

TEST(IngestStream, ConnLogMatchesLegacyDriver) {
  ExpectLegacyParity<ConnReader>("conn_legacy");
}

TEST(IngestStream, DhcpLogMatchesLegacyDriver) {
  ExpectLegacyParity<DhcpReader>("dhcp_legacy");
}

TEST(IngestStream, DnsLogMatchesLegacyDriver) {
  ExpectLegacyParity<DnsReader>("dns_legacy");
}

TEST(IngestStream, UaLogMatchesLegacyDriver) {
  ExpectLegacyParity<UaReader>("ua_legacy");
}

TEST(IngestStream, LegacyDriverCalledRowsBeforeBlankTailsTruncated) {
  // The corrected rule in one document: a complete malformed row followed
  // by an unterminated whitespace segment keeps its own class.
  const ScratchDir scratch("legacy_diff");
  const std::string doc = std::string(logs::DnsLogFormat::kHeader) +
                          "\n1\tnot-a-mac\tx.com\t1.2.3.4\t60\n   ";
  const ingest::Mode mode = ingest::Mode::kTolerant;
  const Outcome legacy = Capture(mode, scratch.path(), [&](auto o, auto& r) {
    return LegacyParseLog<logs::DnsLogFormat>(doc, o, r);
  });
  const Outcome now = Capture(mode, scratch.path(), [&](auto o, auto& r) {
    return logs::ReadDnsLog(doc, o, r);
  });
  EXPECT_EQ(legacy.by_class[static_cast<int>(ingest::ErrorClass::kTruncatedLine)], 1u);
  EXPECT_EQ(now.by_class[static_cast<int>(ingest::ErrorClass::kBadMac)], 1u);
  EXPECT_EQ(now.by_class[static_cast<int>(ingest::ErrorClass::kTruncatedLine)], 0u);
}

// --- Minimum row lengths ----------------------------------------------------

template <typename Format>
void ExpectShortestRowParses(std::string_view row) {
  typename Format::Record record;
  EXPECT_FALSE(Format::ParseRow(row, record).has_value()) << row;
  EXPECT_EQ(row.size(), Format::kMinRowBytes) << row;
}

TEST(IngestStream, MinRowBytesIsTheShortestAcceptedRow) {
  // kMinRowBytes bounds the row count of a document of known size (the
  // record vector is reserved from it), so it must not exceed any row the
  // parser keeps: every field here is at its shortest accepted form.
  ExpectShortestRowParses<flow::ConnLogFormat>("0\t\t0.0.0.0\t0.0.0.0\t0\ttcp\t0\t0");
  ExpectShortestRowParses<logs::DhcpLogFormat>("0\t0\t00:00:00:00:00:00\t0.0.0.0");
  ExpectShortestRowParses<logs::DnsLogFormat>("0\t00:00:00:00:00:00\tx\t0.0.0.0\t0");
  ExpectShortestRowParses<logs::UaLogFormat>("0\t0.0.0.0\tx");
}

// --- File paths ---------------------------------------------------------------

/// Reads `doc` both from a file (bounded chunks) and from memory and
/// expects the same outcome; returns it.
template <typename Reader>
Outcome ReadBothWays(const ScratchDir& scratch, std::string_view doc,
                     ingest::Mode mode) {
  const fs::path file = scratch.path() / "input.log";
  Spit(file, doc);
  const Outcome from_file = Capture(mode, scratch.path(), [&](auto o, auto& r) {
    return ingest::ReadLogFile<typename Reader::Format>(file, o, r);
  });
  const Outcome from_text = Capture(mode, scratch.path(), [&](auto o, auto& r) {
    return Reader::Read(doc, o, r);
  });
  EXPECT_EQ(from_file, from_text);
  return from_file;
}

/// A conn.log of at least `min_bytes` whose byte `at` is not a newline, so
/// the line holding it straddles a read boundary there.
std::string ConnDocStraddling(std::size_t min_bytes, std::size_t at) {
  std::string doc = std::string(flow::ConnLogFormat::kHeader) + "\n";
  for (std::uint64_t i = 0; doc.size() < min_bytes; ++i) {
    doc += std::to_string(1'500'000'000 + i) + "\t1.5\t10.0.0." +
           std::to_string(i % 250) + "\t64.1.2.3\t443\ttcp\t" +
           std::to_string(i) + "\t200\n";
  }
  // Leading blanks around the header are allowed; two of them move any
  // newline off bytes at-1 and at.
  if (doc[at - 1] == '\n' || doc[at] == '\n') doc.insert(0, "  ");
  return doc;
}

TEST(IngestStreamFile, LineStraddlingTheChunkBoundary) {
  const ScratchDir scratch("straddle");
  const std::string doc =
      ConnDocStraddling(ingest::kChunkBytes + 4096, ingest::kChunkBytes);
  ASSERT_NE(doc[ingest::kChunkBytes - 1], '\n');
  ASSERT_NE(doc[ingest::kChunkBytes], '\n');
  for (const ingest::Mode mode : kModes) {
    const Outcome o = ReadBothWays<ConnReader>(scratch, doc, mode);
    EXPECT_TRUE(o.accepted);
    EXPECT_EQ(o.rejected, 0u);
    EXPECT_EQ(o.kept, o.records.size());
    EXPECT_EQ(o.kept, static_cast<std::uint64_t>(
                          std::count(doc.begin(), doc.end(), '\n') - 1));
  }
}

TEST(IngestStreamFile, LineLongerThanAChunk) {
  const ScratchDir scratch("long_line");
  // A user agent may hold any byte but tab and newline: one row of 2.5
  // chunks is a valid record, read whole.
  const std::string agent(ingest::kChunkBytes * 5 / 2, 'A');
  const std::string doc = std::string(logs::UaLogFormat::kHeader) +
                          "\n1\t10.0.0.1\tshort\n2\t10.0.0.2\t" + agent +
                          "\n3\t10.0.0.3\tafter\n";
  const Outcome ua = ReadBothWays<UaReader>(scratch, doc, ingest::Mode::kStrict);
  ASSERT_TRUE(ua.accepted);
  ASSERT_EQ(ua.records.size(), 3u);
  EXPECT_EQ(ua.records[1].size(), agent.size() + std::string("2|167772162|").size());

  // In conn.log the same length is garbage: the sample is clamped, the
  // quarantine keeps the whole line.
  const std::string junk(ingest::kChunkBytes * 3 / 2, 'z');
  const std::string conn = std::string(flow::ConnLogFormat::kHeader) + "\n" + junk +
                           "\n100\t1.5\t10.0.0.1\t64.1.2.3\t443\ttcp\t100\t200\n";
  const Outcome o = ReadBothWays<ConnReader>(scratch, conn, ingest::Mode::kTolerant);
  EXPECT_TRUE(o.accepted);
  EXPECT_EQ(o.kept, 1u);
  EXPECT_EQ(o.by_class[static_cast<int>(ingest::ErrorClass::kFieldCount)], 1u);
  ASSERT_EQ(o.samples.size(), 1u);
  EXPECT_EQ(o.samples[0],
            "2:field_count:" + junk.substr(0, ingest::detail::kSampleClamp));
  EXPECT_EQ(o.quarantine, junk + "\n");
}

TEST(IngestStreamFile, EmptyFile) {
  const ScratchDir scratch("empty");
  const Outcome strict = ReadBothWays<DnsReader>(scratch, "", ingest::Mode::kStrict);
  EXPECT_FALSE(strict.accepted);
  EXPECT_FALSE(strict.header_ok);
  EXPECT_EQ(strict.lines_total, 0u);
  const Outcome tolerant =
      ReadBothWays<DnsReader>(scratch, "", ingest::Mode::kTolerant);
  EXPECT_TRUE(tolerant.accepted);
  EXPECT_FALSE(tolerant.header_ok);
  EXPECT_EQ(tolerant.lines_total, 0u);
  EXPECT_TRUE(tolerant.records.empty());
}

TEST(IngestStreamFile, HeaderOnlyFile) {
  const ScratchDir scratch("header_only");
  for (const std::string& doc : {std::string(logs::DhcpLogFormat::kHeader),
                                 std::string(logs::DhcpLogFormat::kHeader) + "\n"}) {
    for (const ingest::Mode mode : kModes) {
      const Outcome o = ReadBothWays<DhcpReader>(scratch, doc, mode);
      EXPECT_TRUE(o.accepted);
      EXPECT_TRUE(o.header_ok);
      EXPECT_EQ(o.lines_total, 0u);
      EXPECT_TRUE(o.records.empty());
    }
  }
}

template <typename Reader>
void ExpectCrlfMatchesLf(std::string_view tag) {
  const ScratchDir scratch(tag);
  const std::string lf = Reader::CleanDoc(5);
  std::string crlf;
  for (const char c : lf) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  for (const ingest::Mode mode : kModes) {
    const Outcome with_cr = ReadBothWays<Reader>(scratch, crlf, mode);
    const Outcome without = ReadBothWays<Reader>(scratch, lf, mode);
    EXPECT_TRUE(with_cr.accepted);
    EXPECT_TRUE(with_cr.header_ok);
    EXPECT_EQ(with_cr.records, without.records);
    EXPECT_EQ(with_cr.kept, static_cast<std::uint64_t>(kRows));
  }
}

TEST(IngestStreamFile, CrlfLineEndings) {
  ExpectCrlfMatchesLf<ConnReader>("crlf_conn");
  ExpectCrlfMatchesLf<DhcpReader>("crlf_dhcp");
  ExpectCrlfMatchesLf<DnsReader>("crlf_dns");
  ExpectCrlfMatchesLf<UaReader>("crlf_ua");
}

TEST(IngestStreamFile, NoTrailingNewline) {
  const ScratchDir scratch("no_newline");
  const std::string header = std::string(logs::DnsLogFormat::kHeader) + "\n";
  const std::string row = "1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60";
  // A complete final row without its newline is still a row.
  const Outcome whole = ReadBothWays<DnsReader>(scratch, header + row + "\n" + row,
                                                ingest::Mode::kStrict);
  EXPECT_TRUE(whole.accepted);
  EXPECT_EQ(whole.kept, 2u);
  // A cut-off one is a truncated tail.
  const Outcome cut = ReadBothWays<DnsReader>(
      scratch, header + row + "\n" + row.substr(0, 20), ingest::Mode::kTolerant);
  EXPECT_EQ(cut.kept, 1u);
  EXPECT_EQ(cut.by_class[static_cast<int>(ingest::ErrorClass::kTruncatedLine)], 1u);
  ASSERT_EQ(cut.samples.size(), 1u);
  EXPECT_EQ(cut.samples[0], "3:truncated_line:" + row.substr(0, 20));
}

TEST(IngestStreamFile, ReadsGoThroughTheIoShim) {
  const ScratchDir scratch("shim");
  const std::string doc =
      ConnDocStraddling(ingest::kChunkBytes * 5 / 2, ingest::kChunkBytes);
  const fs::path file = scratch.path() / "conn.log";
  Spit(file, doc);
  const ingest::Mode mode = ingest::Mode::kStrict;
  const Outcome clean = ReadBothWays<ConnReader>(scratch, doc, mode);
  ASSERT_TRUE(clean.accepted);

  struct Reset {
    ~Reset() {
      io::ClearFaultPlan();
      io::SetRetryPolicy(io::RetryPolicy{});
    }
  } reset;
  // Short reads cut the chunks anywhere and EINTR storms are retried: the
  // result is the clean one.
  io::SetRetryPolicy(io::RetryPolicy{.max_attempts = 16, .initial_backoff_us = 1});
  io::SetFaultPlan(*io::ParseFaultPlan("3:short@read%0.5,eintr@read%0.5"));
  EXPECT_EQ(Capture(mode, scratch.path(),
                    [&](auto o, auto& r) {
                      return ingest::ReadLogFile<flow::ConnLogFormat>(file, o, r);
                    }),
            clean);
  // A permanent error mid-file surfaces as an ingest IoError.
  io::SetFaultPlan(*io::ParseFaultPlan("1:eio@read#2"));
  ingest::IngestReport report;
  EXPECT_THROW((void)ingest::ReadLogFile<flow::ConnLogFormat>(file, {}, report),
               ingest::IoError);
}

TEST(IngestStreamFile, MissingFileThrowsIoError) {
  ingest::IngestReport report;
  EXPECT_THROW((void)ingest::ReadLogFile<logs::DnsLogFormat>(
                   "/nonexistent/lockdown/dns.log", {}, report),
               ingest::IoError);
}

}  // namespace
}  // namespace lockdown
