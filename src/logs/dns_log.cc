#include "logs/dns_log.h"

#include <charconv>
#include <ostream>

#include "util/strings.h"

namespace lockdown::logs {

namespace {
template <typename T>
bool ParseNum(std::string_view s, T& out) {
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out);
  return res.ec == std::errc() && res.ptr == end;
}

}  // namespace

std::optional<ingest::ErrorClass> DnsLogFormat::ParseRow(std::string_view line,
                                                         dns::Resolution& r) {
  std::string_view fields[5];
  if (!util::SplitExact(util::Trim(line), '\t', fields)) {
    return ingest::ErrorClass::kFieldCount;
  }
  if (!ParseNum(fields[0], r.ts)) return ingest::ErrorClass::kBadTimestamp;
  const auto mac = net::MacAddress::Parse(fields[1]);
  if (!mac) return ingest::ErrorClass::kBadMac;
  if (fields[2].empty()) return ingest::ErrorClass::kBadValue;
  const auto ip = net::Ipv4Address::Parse(fields[3]);
  if (!ip) return ingest::ErrorClass::kBadIp;
  if (!ParseNum(fields[4], r.ttl)) return ingest::ErrorClass::kBadNumber;
  r.client = *mac;
  r.qname = std::string(fields[2]);
  r.answer = *ip;
  return std::nullopt;
}

void WriteDnsLog(std::ostream& out, std::span<const dns::Resolution> resolutions) {
  out << DnsLogFormat::kHeader << '\n';
  for (const dns::Resolution& r : resolutions) {
    out << r.ts << '\t' << r.client.ToString() << '\t' << r.qname << '\t'
        << r.answer.ToString() << '\t' << r.ttl << '\n';
  }
}

std::optional<std::vector<dns::Resolution>> ReadDnsLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report) {
  return ingest::ReadLog<DnsLogFormat>(text, options, report);
}

std::optional<std::vector<dns::Resolution>> ReadDnsLog(std::string_view text) {
  ingest::IngestReport report;
  return ReadDnsLog(text, ingest::IngestOptions{}, report);
}

}  // namespace lockdown::logs
