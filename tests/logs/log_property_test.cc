// Property tests for the TSV log formats (logs/{dhcp,dns,ua}_log and
// flow/conn_log): randomized round-trips over many seeds, and systematic
// malformed-input checks — truncated rows, embedded tabs (which shift the
// field count), non-numeric and out-of-range timestamps, bad addresses,
// random corruption, mutated multi-row documents and random garbage. The
// parsers' contract is all-or-nothing: any bad row rejects the whole
// document with nullopt, and no input may crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "flow/conn_log.h"
#include "logs/dhcp_log.h"
#include "logs/dns_log.h"
#include "logs/ua_log.h"
#include "util/rng.h"
#include "util/strings.h"

namespace lockdown::logs {
namespace {

constexpr int kTrials = 25;

net::Ipv4Address RandomIp(std::mt19937_64& rng) {
  return net::Ipv4Address(static_cast<std::uint32_t>(rng()));
}

net::MacAddress RandomMac(std::mt19937_64& rng) {
  return net::MacAddress(rng() & 0xFFFFFFFFFFFFULL);
}

// Timestamps across the full int64 range, including extremes the study
// window never produces — serialization must not care.
util::Timestamp RandomTs(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return 0;
    case 1: return -1;
    case 2: return std::numeric_limits<util::Timestamp>::max();
    case 3: return std::numeric_limits<util::Timestamp>::min();
    default: return static_cast<util::Timestamp>(rng());
  }
}

std::string RandomHostname(std::mt19937_64& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-.";
  std::string s;
  const std::size_t len = 1 + rng() % 40;
  for (std::size_t i = 0; i < len; ++i) {
    s += kAlphabet[rng() % (sizeof kAlphabet - 1)];
  }
  return s;
}

// Printable-ASCII UA string plus occasional tabs/newlines, which the writer
// is specified to flatten to spaces.
std::string RandomUserAgent(std::mt19937_64& rng, bool& had_separator) {
  std::string s;
  const std::size_t len = 1 + rng() % 60;
  for (std::size_t i = 0; i < len; ++i) {
    const auto roll = rng() % 100;
    if (roll == 0) {
      s += '\t';
      had_separator = true;
    } else if (roll == 1) {
      s += '\n';
      had_separator = true;
    } else {
      s += static_cast<char>('!' + rng() % ('~' - '!' + 1));
    }
  }
  return s;
}

std::string Sanitized(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n') c = ' ';
  }
  return s;
}

// --- Round trips -------------------------------------------------------------

TEST(DhcpLogProperty, RandomLeasesRoundTrip) {
  for (int trial = 0; trial < kTrials; ++trial) {
    std::mt19937_64 rng(1000 + trial);
    std::vector<dhcp::Lease> leases(rng() % 50);
    for (auto& lease : leases) {
      lease.mac = RandomMac(rng);
      lease.ip = RandomIp(rng);
      lease.start = RandomTs(rng);
      lease.end = RandomTs(rng);
    }
    std::ostringstream out;
    WriteDhcpLog(out, leases);
    const auto back = ReadDhcpLog(out.str());
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    ASSERT_EQ(back->size(), leases.size()) << "trial " << trial;
    for (std::size_t i = 0; i < leases.size(); ++i) {
      EXPECT_EQ((*back)[i].mac, leases[i].mac);
      EXPECT_EQ((*back)[i].ip, leases[i].ip);
      EXPECT_EQ((*back)[i].start, leases[i].start);
      EXPECT_EQ((*back)[i].end, leases[i].end);
    }
  }
}

TEST(DnsLogProperty, RandomResolutionsRoundTrip) {
  for (int trial = 0; trial < kTrials; ++trial) {
    std::mt19937_64 rng(2000 + trial);
    std::vector<dns::Resolution> rows(rng() % 50);
    for (auto& r : rows) {
      r.ts = RandomTs(rng);
      r.client = RandomMac(rng);
      r.qname = RandomHostname(rng);
      r.answer = RandomIp(rng);
      r.ttl = static_cast<std::int32_t>(rng());
    }
    std::ostringstream out;
    WriteDnsLog(out, rows);
    const auto back = ReadDnsLog(out.str());
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    ASSERT_EQ(back->size(), rows.size()) << "trial " << trial;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ((*back)[i].ts, rows[i].ts);
      EXPECT_EQ((*back)[i].client, rows[i].client);
      EXPECT_EQ((*back)[i].qname, rows[i].qname);
      EXPECT_EQ((*back)[i].answer, rows[i].answer);
      EXPECT_EQ((*back)[i].ttl, rows[i].ttl);
    }
  }
}

TEST(UaLogProperty, RandomSightingsRoundTripModuloSanitization) {
  bool any_separator = false;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::mt19937_64 rng(3000 + trial);
    std::vector<UaRecord> rows(1 + rng() % 50);
    for (auto& r : rows) {
      r.ts = RandomTs(rng);
      r.client_ip = RandomIp(rng);
      r.user_agent = RandomUserAgent(rng, any_separator);
    }
    std::ostringstream out;
    WriteUaLog(out, rows);
    const auto back = ReadUaLog(out.str());
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    ASSERT_EQ(back->size(), rows.size()) << "trial " << trial;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ((*back)[i].ts, rows[i].ts);
      EXPECT_EQ((*back)[i].client_ip, rows[i].client_ip);
      // Tabs/newlines inside the UA become spaces on disk, and the reader
      // trims the field's edges; everything else survives verbatim.
      const std::string sanitized = Sanitized(rows[i].user_agent);
      EXPECT_EQ((*back)[i].user_agent, std::string(util::Trim(sanitized)));
    }
  }
  // The generator must actually have exercised the sanitization path.
  EXPECT_TRUE(any_separator);
}

// --- conn.log: the one-pass row parser against the general one ---------------

void ExpectSameFlow(const flow::FlowRecord& a, const flow::FlowRecord& b,
                    const std::string& row) {
  EXPECT_EQ(a.start, b.start) << row;
  EXPECT_EQ(a.duration_s, b.duration_s) << row;
  EXPECT_EQ(a.client_ip, b.client_ip) << row;
  EXPECT_EQ(a.server_ip, b.server_ip) << row;
  EXPECT_EQ(a.server_port, b.server_port) << row;
  EXPECT_EQ(a.proto, b.proto) << row;
  EXPECT_EQ(a.bytes_up, b.bytes_up) << row;
  EXPECT_EQ(a.bytes_down, b.bytes_down) << row;
}

// ParseRow (common-shape pass, general fallback) and the general parser
// alone must return the same class, and on success the same record.
// Returns whether the row was accepted.
bool ExpectParsersAgree(const std::string& row) {
  flow::FlowRecord fast;
  flow::FlowRecord general;
  const std::optional<ingest::ErrorClass> fast_err = flow::ConnLogFormat::ParseRow(row, fast);
  const std::optional<ingest::ErrorClass> general_err =
      flow::detail::ParseConnRowGeneral(row, general);
  EXPECT_EQ(fast_err, general_err) << "row '" << row << "'";
  if (!fast_err && !general_err) ExpectSameFlow(fast, general, row);
  return !general_err;
}

// A duration the writer prints exactly: at most six significant digits, in
// fixed or (from 1e6 on) exponent notation.
double RandomPrintableDuration(std::mt19937_64& rng) {
  const auto m = static_cast<double>(rng() % 1000000);
  switch (rng() % 4) {
    case 0: return m;
    case 1: return m / 1000;
    case 2: return m / 1000000;
    default: return m * 1e6;
  }
}

TEST(ConnLogProperty, RandomFlowsRoundTrip) {
  for (int trial = 0; trial < kTrials; ++trial) {
    std::mt19937_64 rng(4000 + trial);
    std::vector<flow::FlowRecord> flows(rng() % 200);
    for (auto& f : flows) {
      f.start = RandomTs(rng);
      f.duration_s = RandomPrintableDuration(rng);
      f.client_ip = RandomIp(rng);
      f.server_ip = RandomIp(rng);
      f.server_port = static_cast<net::Port>(rng());
      f.proto = rng() % 2 == 0 ? net::Protocol::kTcp : net::Protocol::kUdp;
      f.bytes_up = rng() % 3 == 0 ? rng() : rng() % 100000;
      f.bytes_down = rng() % 3 == 0 ? rng() : rng() % 100000;
    }
    std::ostringstream out;
    flow::WriteConnLog(out, flows);
    const std::string doc = out.str();
    const auto back = flow::ReadConnLog(doc);
    ASSERT_TRUE(back.has_value()) << "trial " << trial;
    ASSERT_EQ(back->size(), flows.size()) << "trial " << trial;
    const std::vector<std::string_view> rows = util::Split(doc, '\n');
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const std::string row(rows[i + 1]);
      ExpectSameFlow((*back)[i], flows[i], row);
      EXPECT_TRUE(ExpectParsersAgree(row));
    }
  }
}

TEST(ConnLogProperty, BoundaryCorpusMatchesTheGeneralParser) {
  const std::vector<std::string> base = {"1585699200", "12.5", "10.0.0.1", "93.184.216.34",
                                         "443",        "tcp",  "1200",     "56000"};
  const std::vector<std::string> numbers = {
      "0", "7", "007", "123456789012345678", "999999999999999999",
      "1234567890123456789", "9223372036854775807", "9223372036854775808",
      "18446744073709551615", "18446744073709551616", "12345678901234567890",
      "+5", "-5", "-0", "+0", " 5", "5 ", "", "5x", "1.5", "0x10"};
  const std::vector<std::string> durations = {
      "0", "0.0", "1", "1.5", "007.250", "0.000001", "123456789012345", "1234567890123456",
      "12345678.1234567", "12345678.12345678", "0.1234567890123456789", "1.", ".5", "1e3",
      "1E3", "1.5e-3", "1e+06", "0x1p3", "0x10", "nan", "NaN", "-nan", "inf", "-inf",
      "infinity", "-1", "+1", "-0", "+0.5", "", "1.2.3", "1,5", " 1.5", "1.5 ",
      "99999999999999999999999"};
  const std::vector<std::string> quads = {
      "0.0.0.0", "255.255.255.255", "256.0.0.1", "1.2.3.256", "0255.1.1.1", "1.2.3.0255",
      "01.02.03.04", "1.2.3", "1.2.3.4.5", " 1.2.3.4", "1.2.3.4 ", "", "1..2.3", "1.2.3.",
      ".1.2.3", "a.b.c.d", "1.2.3.-4", "+1.2.3.4"};
  const std::vector<std::string> ports = {"0",      "65535", "65536", "065535", "00080", "99999",
                                          "100000", "-1",    "+1",    "",       "80 ",   "8O"};
  const std::vector<std::string> protos = {"tcp",  "udp",  "TCP",  "Udp", "icmp",
                                           "",     "tc",   "tcpp", " tcp", "tcp "};
  const std::vector<std::vector<std::string>> corpus = {numbers, durations, quads, quads,
                                                        ports,   protos,    numbers, numbers};
  const auto join = [](const std::vector<std::string>& fields) {
    std::string row;
    for (std::size_t i = 0; i < fields.size(); ++i) row += (i == 0 ? "" : "\t") + fields[i];
    return row;
  };
  int accepted = 0;
  int rejected = 0;
  for (std::size_t field = 0; field < base.size(); ++field) {
    for (const std::string& value : corpus[field]) {
      std::vector<std::string> fields = base;
      fields[field] = value;
      ++(ExpectParsersAgree(join(fields)) ? accepted : rejected);
    }
  }
  const std::string row = join(base);
  const std::vector<std::string> seven(base.begin(), base.end() - 1);
  std::vector<std::string> nine = base;
  nine.emplace_back("0");
  for (const std::string& variant :
       {row, " " + row, "  " + row, row + " ", row + "\r", row + " \r", "\t" + row, row + "\t",
        join(seven), join(nine), std::string(), std::string("\t\t\t\t\t\t\t")}) {
    ++(ExpectParsersAgree(variant) ? accepted : rejected);
  }
  // Durations of 1 to 17 digits with the point anywhere: the common shape's
  // m / 10^k must round as from_chars does, and hand longer ones over.
  std::mt19937_64 rng(4100);
  for (int i = 0; i < 20000; ++i) {
    std::string digits;
    const std::size_t len = 1 + rng() % 17;
    for (std::size_t d = 0; d < len; ++d) digits += static_cast<char>('0' + rng() % 10);
    const std::size_t point = 1 + rng() % len;
    if (point < len) digits.insert(point, 1, '.');
    std::vector<std::string> fields = base;
    fields[1] = digits;
    ++(ExpectParsersAgree(join(fields)) ? accepted : rejected);
  }
  // Both outcomes occur in numbers, so the agreement is not vacuous.
  EXPECT_GT(accepted, 20000);
  EXPECT_GT(rejected, 80);

  // The edges of the common shape parse to what they say.
  flow::FlowRecord r;
  ASSERT_FALSE(flow::ConnLogFormat::ParseRow(
      "123456789012345678\t0.000001\t255.255.255.255\t0.0.0.0\t65535\tudp\t"
      "999999999999999999\t0",
      r));
  EXPECT_EQ(r.start, 123456789012345678);
  EXPECT_EQ(r.duration_s, 0.000001);
  EXPECT_EQ(r.client_ip, net::Ipv4Address(255, 255, 255, 255));
  EXPECT_EQ(r.server_port, 65535);
  EXPECT_EQ(r.proto, net::Protocol::kUdp);
  EXPECT_EQ(r.bytes_up, 999999999999999999U);
  EXPECT_EQ(flow::ConnLogFormat::ParseRow("1\t1\t1.2.3.4\t1.2.3.4\t65536\ttcp\t0\t0", r),
            ingest::ErrorClass::kBadNumber);
  EXPECT_EQ(flow::ConnLogFormat::ParseRow("1\tnan\t1.2.3.4\t1.2.3.4\t1\ttcp\t0\t0", r),
            ingest::ErrorClass::kBadValue);
  EXPECT_EQ(flow::ConnLogFormat::ParseRow("1\t1\t1.2.3.4\t1.2.3.4\t1\tTCP\t0\t0", r),
            ingest::ErrorClass::kBadValue);
}

// --- Malformed documents ------------------------------------------------------

// One valid single-row document per format, used as the corruption base.
std::string ValidDhcpDoc() {
  return "start\tend\tmac\tip\n100\t200\t00:17:f2:00:00:01\t10.0.0.1\n";
}
std::string ValidDnsDoc() {
  return "ts\tclient\tqname\tanswer\tttl\n"
         "100\t00:17:f2:00:00:01\texample.com\t93.184.216.34\t300\n";
}
std::string ValidUaDoc() {
  return "ts\tclient\tuser_agent\n100\t10.0.0.1\tMozilla/5.0\n";
}
std::string ValidConnDoc() {
  std::ostringstream out;
  flow::WriteConnLog(out, {flow::FlowRecord{100, 12.5, net::Ipv4Address(10, 0, 0, 1),
                                            net::Ipv4Address(93, 184, 216, 34), 443,
                                            net::Protocol::kTcp, 1200, 56000}});
  return out.str();
}

TEST(LogMalformedProperty, BasesAreValid) {
  EXPECT_TRUE(ReadDhcpLog(ValidDhcpDoc()).has_value());
  EXPECT_TRUE(ReadDnsLog(ValidDnsDoc()).has_value());
  EXPECT_TRUE(ReadUaLog(ValidUaDoc()).has_value());
  EXPECT_TRUE(flow::ReadConnLog(ValidConnDoc()).has_value());
}

TEST(LogMalformedProperty, MissingOrWrongHeaderRejected) {
  EXPECT_FALSE(ReadDhcpLog("").has_value());
  EXPECT_FALSE(ReadDnsLog("").has_value());
  EXPECT_FALSE(ReadUaLog("").has_value());
  EXPECT_FALSE(ReadDhcpLog("100\t200\t00:17:f2:00:00:01\t10.0.0.1\n").has_value());
  EXPECT_FALSE(ReadDnsLog(ValidUaDoc()).has_value());
  EXPECT_FALSE(ReadUaLog(ValidDhcpDoc()).has_value());
}

TEST(LogMalformedProperty, TruncatedRowsRejected) {
  // Drop the final field (and its separator) from the data row.
  EXPECT_FALSE(
      ReadDhcpLog("start\tend\tmac\tip\n100\t200\t00:17:f2:00:00:01\n").has_value());
  EXPECT_FALSE(ReadDnsLog("ts\tclient\tqname\tanswer\tttl\n"
                          "100\t00:17:f2:00:00:01\texample.com\t93.184.216.34\n")
                   .has_value());
  EXPECT_FALSE(ReadUaLog("ts\tclient\tuser_agent\n100\t10.0.0.1\n").has_value());
  // Cut mid-field: the dangling prefix must not parse either.
  const std::string dhcp = ValidDhcpDoc();
  EXPECT_FALSE(ReadDhcpLog(dhcp.substr(0, dhcp.size() - 6)).has_value());
}

TEST(LogMalformedProperty, EmbeddedTabShiftsFieldCountAndRejects) {
  // A tab smuggled into a value splits the row into too many fields.
  EXPECT_FALSE(
      ReadDhcpLog("start\tend\tmac\tip\n100\t2\t00\t00:17:f2:00:00:01\t10.0.0.1\n")
          .has_value());
  EXPECT_FALSE(ReadDnsLog("ts\tclient\tqname\tanswer\tttl\n"
                          "100\t00:17:f2:00:00:01\texa\tmple.com\t93.184.216.34\t300\n")
                   .has_value());
  EXPECT_FALSE(
      ReadUaLog("ts\tclient\tuser_agent\n100\t10.0.0.1\tMozilla\t5.0\n").has_value());
}

TEST(LogMalformedProperty, BadTimestampsRejected) {
  // Non-numeric, trailing garbage, and out-of-range (overflow consumes every
  // digit, so only the error code distinguishes it from a good parse).
  for (const char* ts : {"abc", "12x4", "", "1 00", "99999999999999999999999",
                         "-99999999999999999999999"}) {
    const std::string dhcp =
        std::string("start\tend\tmac\tip\n") + ts +
        "\t200\t00:17:f2:00:00:01\t10.0.0.1\n";
    EXPECT_FALSE(ReadDhcpLog(dhcp).has_value()) << "dhcp ts='" << ts << "'";
    const std::string dns =
        std::string("ts\tclient\tqname\tanswer\tttl\n") + ts +
        "\t00:17:f2:00:00:01\texample.com\t93.184.216.34\t300\n";
    EXPECT_FALSE(ReadDnsLog(dns).has_value()) << "dns ts='" << ts << "'";
    const std::string ua =
        std::string("ts\tclient\tuser_agent\n") + ts + "\t10.0.0.1\tMozilla/5.0\n";
    EXPECT_FALSE(ReadUaLog(ua).has_value()) << "ua ts='" << ts << "'";
  }
  // TTL overflows int32.
  EXPECT_FALSE(ReadDnsLog("ts\tclient\tqname\tanswer\tttl\n"
                          "100\t00:17:f2:00:00:01\texample.com\t93.184.216.34\t"
                          "99999999999\n")
                   .has_value());
}

TEST(LogMalformedProperty, BadAddressesRejected) {
  EXPECT_FALSE(
      ReadDhcpLog("start\tend\tmac\tip\n100\t200\tnot-a-mac\t10.0.0.1\n").has_value());
  EXPECT_FALSE(
      ReadDhcpLog("start\tend\tmac\tip\n100\t200\t00:17:f2:00:00:01\t10.0.0.256\n")
          .has_value());
  EXPECT_FALSE(ReadDnsLog("ts\tclient\tqname\tanswer\tttl\n"
                          "100\t00:17:f2:00:00:01\texample.com\t93.184.216\t300\n")
                   .has_value());
  EXPECT_FALSE(
      ReadUaLog("ts\tclient\tuser_agent\n100\t10.0.0\tMozilla/5.0\n").has_value());
}

// Randomized single-byte corruptions of valid documents: the parser may
// accept (some corruptions are harmless, e.g. inside the UA text) or reject,
// but must never crash, and whatever it accepts must re-serialize cleanly.
TEST(LogMalformedProperty, RandomCorruptionNeverCrashes) {
  std::mt19937_64 rng(4242);
  const std::string bases[] = {ValidDhcpDoc(), ValidDnsDoc(), ValidUaDoc(), ValidConnDoc()};
  for (int trial = 0; trial < 400; ++trial) {
    std::string doc = bases[trial % 4];
    const std::size_t pos = rng() % doc.size();
    doc[pos] = static_cast<char>(rng() % 256);
    switch (trial % 4) {
      case 0: {
        const auto parsed = ReadDhcpLog(doc);
        if (parsed) {
          std::ostringstream out;
          WriteDhcpLog(out, *parsed);
          EXPECT_TRUE(ReadDhcpLog(out.str()).has_value());
        }
        break;
      }
      case 1: {
        const auto parsed = ReadDnsLog(doc);
        if (parsed) {
          std::ostringstream out;
          WriteDnsLog(out, *parsed);
          EXPECT_TRUE(ReadDnsLog(out.str()).has_value());
        }
        break;
      }
      case 2: {
        const auto parsed = ReadUaLog(doc);
        if (parsed) {
          std::ostringstream out;
          WriteUaLog(out, *parsed);
          EXPECT_TRUE(ReadUaLog(out.str()).has_value());
        }
        break;
      }
      default: {
        const auto parsed = flow::ReadConnLog(doc);
        if (parsed) {
          std::ostringstream out;
          flow::WriteConnLog(out, *parsed);
          EXPECT_TRUE(flow::ReadConnLog(out.str()).has_value());
        }
        break;
      }
    }
  }
}

// Random text of separators, digits and control bytes, alone and after each
// format's valid header. No reader may crash. Alone, the text never holds a
// header (every header has a 't'), so each reader rejects it; after a header,
// a reader accepts at most one row per line.
TEST(LogMalformedProperty, RandomGarbageNeverCrashes) {
  static constexpr char kAlphabet[] = "abc123.\t\n:/-\\\"\x01 \x7f";
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string junk(rng() % 300, ' ');
    for (char& c : junk) c = kAlphabet[rng() % (sizeof kAlphabet - 1)];
    const auto lines = static_cast<std::size_t>(std::count(junk.begin(), junk.end(), '\n')) + 1;
    const auto rows = [&](const auto& parsed) { return parsed ? parsed->size() : 0; };
    const auto headed = [&](std::string_view header) {
      return std::string(header) + "\n" + junk;
    };
    EXPECT_FALSE(ReadDhcpLog(junk).has_value());
    EXPECT_FALSE(ReadDnsLog(junk).has_value());
    EXPECT_FALSE(ReadUaLog(junk).has_value());
    EXPECT_FALSE(flow::ReadConnLog(junk).has_value());
    EXPECT_LE(rows(ReadDhcpLog(headed(DhcpLogFormat::kHeader))), lines);
    EXPECT_LE(rows(ReadDnsLog(headed(DnsLogFormat::kHeader))), lines);
    EXPECT_LE(rows(ReadUaLog(headed(UaLogFormat::kHeader))), lines);
    EXPECT_LE(rows(flow::ReadConnLog(headed(flow::ConnLogFormat::kHeader))), lines);
  }
}

// Single-character mutations of a valid five-row dhcp.log: no crash, and an
// accepted document never holds more leases than were written.
TEST(Robustness, TextLogReadersSurviveMutatedValidLogs) {
  std::vector<dhcp::Lease> leases;
  for (int i = 1; i <= 5; ++i) {
    leases.push_back(dhcp::Lease{net::MacAddress(static_cast<std::uint64_t>(i)),
                                 net::Ipv4Address(10, 0, 0,
                                                  static_cast<std::uint8_t>(i)),
                                 i * 100, i * 100 + 50});
  }
  std::ostringstream out;
  WriteDhcpLog(out, leases);
  const std::string base = out.str();
  util::Pcg32 rng(6);
  for (int i = 0; i < 2000; ++i) {
    std::string doc = base;
    doc[rng.NextBounded(static_cast<std::uint32_t>(doc.size()))] =
        static_cast<char>(rng.NextBounded(128));
    const auto result = ReadDhcpLog(doc);
    if (result) {
      EXPECT_LE(result->size(), leases.size());
    }
  }
}

}  // namespace
}  // namespace lockdown::logs
