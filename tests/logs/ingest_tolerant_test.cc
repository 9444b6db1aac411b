// Tolerant-ingest unit tests: error taxonomy, accounting contract, budget
// enforcement, header semantics, truncated-tail reclassification, quarantine,
// and report aggregation — exercised through all four real log readers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "flow/conn_log.h"
#include "ingest/ingest.h"
#include "logs/dhcp_log.h"
#include "logs/dns_log.h"
#include "logs/ua_log.h"

namespace lockdown {
namespace {

constexpr std::string_view kDnsHeader = "ts\tclient\tqname\tanswer\tttl";

ingest::IngestOptions Tolerant(double budget = 1.0) {
  ingest::IngestOptions options;
  options.mode = ingest::Mode::kTolerant;
  options.max_error_rate = budget;
  return options;
}

std::string DnsDoc(std::initializer_list<std::string_view> rows) {
  std::ostringstream out;
  out << kDnsHeader << '\n';
  for (const auto row : rows) out << row << '\n';
  return out.str();
}

std::uint64_t ClassCount(const ingest::IngestReport& report,
                         ingest::ErrorClass error) {
  return report.by_class[static_cast<int>(error)];
}

TEST(TolerantIngest, CleanDocumentMatchesStrictRead) {
  const std::string doc = DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60",
                                  "2\taa:bb:cc:dd:ee:01\tnetflix.com\t5.6.7.8\t30"});
  ingest::IngestReport report;
  const auto tolerant = logs::ReadDnsLog(doc, Tolerant(), report);
  const auto strict = logs::ReadDnsLog(doc);
  ASSERT_TRUE(tolerant.has_value());
  ASSERT_TRUE(strict.has_value());
  EXPECT_EQ(tolerant->size(), strict->size());
  EXPECT_EQ(report.lines_total, 2u);
  EXPECT_EQ(report.kept, 2u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_TRUE(report.header_ok);
  EXPECT_EQ(report.error_rate(), 0.0);
}

TEST(TolerantIngest, SkipsAndClassifiesMalformedRows) {
  const std::string doc =
      DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60",
              "x\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60",   // bad ts
              "1\tnot-a-mac\tzoom.us\t1.2.3.4\t60",           // bad mac
              "1\taa:bb:cc:dd:ee:ff\t\t1.2.3.4\t60",          // empty qname
              "1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.999\t60", // bad ip
              "1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\tx",    // bad ttl
              "only\ttwo",                                    // field count
              "2\taa:bb:cc:dd:ee:01\tnetflix.com\t5.6.7.8\t30"});
  ingest::IngestReport report;
  const auto parsed = logs::ReadDnsLog(doc, Tolerant(), report);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_EQ(report.lines_total, 8u);
  EXPECT_EQ(report.kept, 2u);
  EXPECT_EQ(report.rejected, 6u);
  EXPECT_EQ(report.kept + report.rejected, report.lines_total);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadTimestamp), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadMac), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadValue), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadIp), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadNumber), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kFieldCount), 1u);
  // The strict read rejects the same document outright.
  EXPECT_FALSE(logs::ReadDnsLog(doc).has_value());
}

TEST(TolerantIngest, SamplesRetainOffendingLines) {
  ingest::IngestOptions options = Tolerant();
  options.max_samples = 2;
  const std::string doc = DnsDoc({"bad row 1", "bad\trow\t2", "bad row 3"});
  ingest::IngestReport report;
  ASSERT_TRUE(logs::ReadDnsLog(doc, options, report).has_value());
  ASSERT_EQ(report.samples.size(), 2u);
  EXPECT_EQ(report.samples[0].line, 2u);  // 1-based; line 1 is the header
  EXPECT_EQ(report.samples[0].text, "bad row 1");
  EXPECT_EQ(report.samples[0].error, ingest::ErrorClass::kFieldCount);
  EXPECT_EQ(report.samples[1].line, 3u);
  EXPECT_EQ(report.rejected, 3u);
}

TEST(TolerantIngest, BudgetRejectsWholeDocumentWhenExceeded) {
  const std::string doc = DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60",
                                  "garbage", "more garbage", "even more"});
  ingest::IngestReport report;
  EXPECT_FALSE(logs::ReadDnsLog(doc, Tolerant(0.5), report).has_value());
  EXPECT_EQ(report.rejected, 3u);
  EXPECT_GT(report.error_rate(), 0.5);
  // A looser budget admits the same document.
  EXPECT_TRUE(logs::ReadDnsLog(doc, Tolerant(0.8), report).has_value());
}

TEST(TolerantIngest, MissingHeaderStrictRejectsTolerantRecovers) {
  const std::string doc =
      "1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60\n"
      "2\taa:bb:cc:dd:ee:01\tnetflix.com\t5.6.7.8\t30\n";
  EXPECT_FALSE(logs::ReadDnsLog(doc).has_value());
  ingest::IngestReport report;
  const auto parsed = logs::ReadDnsLog(doc, Tolerant(), report);
  ASSERT_TRUE(parsed.has_value());
  // Line 1 is counted as a kBadHeader rejection; the data rows survive.
  EXPECT_FALSE(report.header_ok);
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadHeader), 1u);
  EXPECT_EQ(report.kept + report.rejected, report.lines_total);
}

TEST(TolerantIngest, TruncatedTailIsReclassified) {
  // Valid row cut mid-field with no trailing newline: an interrupted write.
  const std::string doc = std::string(kDnsHeader) +
                          "\n1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60\n"
                          "2\taa:bb:cc:dd:ee:01\tnetfl";
  ingest::IngestReport report;
  const auto parsed = logs::ReadDnsLog(doc, Tolerant(), report);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kTruncatedLine), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kFieldCount), 0u);
  // The same bytes with a trailing newline are ordinary garbage instead.
  ingest::IngestReport complete;
  ASSERT_TRUE(logs::ReadDnsLog(doc + "\n", Tolerant(), complete).has_value());
  EXPECT_EQ(ClassCount(complete, ingest::ErrorClass::kTruncatedLine), 0u);
  EXPECT_EQ(ClassCount(complete, ingest::ErrorClass::kFieldCount), 1u);
}

TEST(TolerantIngest, BlankUnterminatedTailDoesNotTruncateTheRowBeforeIt) {
  // Only the unterminated final segment can be a cut-off write. Here that
  // segment is whitespace; the complete malformed row before it keeps its
  // own class.
  const std::string doc =
      DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60",
              "1\tnot-a-mac\tx.com\t1.2.3.4\t60"}) +
      "   ";
  ingest::IngestReport report;
  const auto parsed = logs::ReadDnsLog(doc, Tolerant(), report);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ(report.lines_total, 2u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadMac), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kTruncatedLine), 0u);
  ASSERT_EQ(report.samples.size(), 1u);
  EXPECT_EQ(report.samples[0].line, 3u);
  EXPECT_EQ(report.samples[0].error, ingest::ErrorClass::kBadMac);
}

TEST(TolerantIngest, QuarantineWritesRejectedLinesVerbatim) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "lockdown_ingest_quarantine_test";
  std::filesystem::remove_all(dir);
  ingest::IngestOptions options = Tolerant();
  options.quarantine_dir = dir;
  options.source = "dns.log";
  const std::string doc =
      DnsDoc({"garbage one", "1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60",
              "garbage\ttwo"});
  ingest::IngestReport report;
  ASSERT_TRUE(logs::ReadDnsLog(doc, options, report).has_value());
  ASSERT_FALSE(report.quarantine_file.empty());
  EXPECT_EQ(report.quarantine_file, dir / "dns.log.rej");
  std::ifstream in(report.quarantine_file);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "garbage one\ngarbage\ttwo\n");
  std::filesystem::remove_all(dir);
}

TEST(TolerantIngest, NoQuarantineFileForCleanInput) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "lockdown_ingest_quarantine_clean_test";
  std::filesystem::remove_all(dir);
  ingest::IngestOptions options = Tolerant();
  options.quarantine_dir = dir;
  const std::string doc = DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60"});
  ingest::IngestReport report;
  ASSERT_TRUE(logs::ReadDnsLog(doc, options, report).has_value());
  EXPECT_TRUE(report.quarantine_file.empty());
  EXPECT_FALSE(std::filesystem::exists(dir / "input.rej"));
  std::filesystem::remove_all(dir);
}

TEST(TolerantIngest, ConnLogTaxonomy) {
  constexpr std::string_view kRows[] = {
      "100\t1.5\t10.0.0.1\t64.1.2.3\t443\ttcp\t100\t200",  // clean
      "abc\t1.5\t10.0.0.1\t64.1.2.3\t443\ttcp\t100\t200",  // bad ts
      "100\tzz\t10.0.0.1\t64.1.2.3\t443\ttcp\t100\t200",   // bad duration
      "100\t1.5\t10.0.0\t64.1.2.3\t443\ttcp\t100\t200",    // bad ip
      "100\t1.5\t10.0.0.1\t64.1.2.3\t99999\ttcp\t100\t200",  // port overflow
      "100\t1.5\t10.0.0.1\t64.1.2.3\t443\ticmp\t100\t200",   // bad proto
  };
  std::string doc =
      "ts\tduration\tid.orig_h\tid.resp_h\tid.resp_p\tproto\torig_bytes\t"
      "resp_bytes\n";
  for (const auto row : kRows) doc += std::string(row) + "\n";
  ingest::IngestReport report;
  const auto parsed = flow::ReadConnLog(doc, Tolerant(), report);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ(report.rejected, 5u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadTimestamp), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadNumber), 2u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadIp), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadValue), 1u);
}

TEST(TolerantIngest, ConnLogRejectsNonFiniteAndNegativeDurations) {
  // strtod parses these, but the figures cast the duration to an integer
  // timestamp (undefined for NaN/inf) and a negative span has no meaning.
  const std::string header =
      "ts\tduration\tid.orig_h\tid.resp_h\tid.resp_p\tproto\torig_bytes\t"
      "resp_bytes\n";
  const auto row = [](std::string_view duration) {
    return "100\t" + std::string(duration) +
           "\t10.0.0.1\t64.1.2.3\t443\ttcp\t100\t200\n";
  };
  std::string tolerant_doc = header + row("0") + row("1.5");
  for (const std::string_view bad : {"nan", "inf", "-1"}) {
    tolerant_doc += row(bad);
    ingest::IngestReport report;
    EXPECT_FALSE(flow::ReadConnLog(header + row("1.5") + row(bad),
                                   ingest::IngestOptions{}, report)
                     .has_value())
        << bad;
    EXPECT_EQ(report.rejected, 1u) << bad;
    EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadValue), 1u) << bad;
  }
  ingest::IngestReport report;
  const auto parsed = flow::ReadConnLog(tolerant_doc, Tolerant(), report);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].duration_s, 0.0);
  EXPECT_EQ((*parsed)[1].duration_s, 1.5);
  EXPECT_EQ(report.lines_total, 5u);
  EXPECT_EQ(report.kept, 2u);
  EXPECT_EQ(report.rejected, 3u);
  EXPECT_EQ(report.kept + report.rejected, report.lines_total);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadValue), 3u);
}

TEST(TolerantIngest, DhcpAndUaTaxonomy) {
  ingest::IngestReport report;
  const auto dhcp = logs::ReadDhcpLog(
      "start\tend\tmac\tip\n"
      "100\t200\taa:bb:cc:dd:ee:ff\t10.0.0.1\n"
      "bad\t200\taa:bb:cc:dd:ee:ff\t10.0.0.1\n"
      "100\t200\tnope\t10.0.0.1\n"
      "100\t200\taa:bb:cc:dd:ee:ff\t10.0.0.256\n",
      Tolerant(), report);
  ASSERT_TRUE(dhcp.has_value());
  EXPECT_EQ(dhcp->size(), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadTimestamp), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadMac), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadIp), 1u);

  const auto ua = logs::ReadUaLog(
      "ts\tclient\tuser_agent\n"
      "100\t10.0.0.1\tMozilla/5.0\n"
      "100\tbanana\tMozilla/5.0\n"
      "100\t10.0.0.1\t\n",
      Tolerant(), report);
  ASSERT_TRUE(ua.has_value());
  EXPECT_EQ(ua->size(), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadIp), 1u);
  EXPECT_EQ(ClassCount(report, ingest::ErrorClass::kBadValue), 1u);
}

TEST(TolerantIngest, MergeAggregatesReports) {
  ingest::IngestReport a;
  ingest::IngestReport b;
  ASSERT_TRUE(logs::ReadDnsLog(
                  DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60", "junk"}),
                  Tolerant(), a)
                  .has_value());
  ASSERT_TRUE(
      logs::ReadDnsLog(DnsDoc({"more junk"}), Tolerant(), b).has_value());
  a.source = "first";
  b.source = "second";
  ingest::IngestReport total;
  total.Merge(a);
  total.Merge(b);
  EXPECT_EQ(total.lines_total, 3u);
  EXPECT_EQ(total.kept, 1u);
  EXPECT_EQ(total.rejected, 2u);
  EXPECT_EQ(ClassCount(total, ingest::ErrorClass::kFieldCount), 2u);
  EXPECT_EQ(total.source, "first+second");
  EXPECT_EQ(total.kept + total.rejected, total.lines_total);
}

TEST(TolerantIngest, SummaryNamesClasses) {
  ingest::IngestOptions options = Tolerant();
  options.source = "dns.log";
  ingest::IngestReport report;
  ASSERT_TRUE(logs::ReadDnsLog(
                  DnsDoc({"1\taa:bb:cc:dd:ee:ff\tzoom.us\t1.2.3.4\t60", "junk"}),
                  options, report)
                  .has_value());
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("dns.log"), std::string::npos);
  EXPECT_NE(summary.find("field_count"), std::string::npos);
}

TEST(TolerantIngest, ParseModeRoundTrip) {
  EXPECT_EQ(ingest::ParseMode("strict"), ingest::Mode::kStrict);
  EXPECT_EQ(ingest::ParseMode("tolerant"), ingest::Mode::kTolerant);
  EXPECT_FALSE(ingest::ParseMode("lenient").has_value());
}

}  // namespace
}  // namespace lockdown
