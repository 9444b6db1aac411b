#include "logs/dhcp_log.h"

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

std::optional<ingest::ErrorClass> DhcpLogFormat::ParseRow(std::string_view line,
                                                          dhcp::Lease& lease) {
  std::string_view fields[4];
  if (!util::SplitExact(util::Trim(line), '\t', fields)) {
    return ingest::ErrorClass::kFieldCount;
  }
  if (!ParseNum(fields[0], lease.start)) return ingest::ErrorClass::kBadTimestamp;
  if (!ParseNum(fields[1], lease.end)) return ingest::ErrorClass::kBadTimestamp;
  const auto mac = net::MacAddress::Parse(fields[2]);
  if (!mac) return ingest::ErrorClass::kBadMac;
  const auto ip = net::Ipv4Address::Parse(fields[3]);
  if (!ip) return ingest::ErrorClass::kBadIp;
  lease.mac = *mac;
  lease.ip = *ip;
  return std::nullopt;
}

void WriteDhcpLog(std::ostream& out, std::span<const dhcp::Lease> leases) {
  out << DhcpLogFormat::kHeader << '\n';
  for (const dhcp::Lease& lease : leases) {
    out << lease.start << '\t' << lease.end << '\t' << lease.mac.ToString()
        << '\t' << lease.ip.ToString() << '\n';
  }
}

std::optional<std::vector<dhcp::Lease>> ReadDhcpLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report) {
  return ingest::ReadLog<DhcpLogFormat>(text, options, report);
}

std::optional<std::vector<dhcp::Lease>> ReadDhcpLog(std::string_view text) {
  ingest::IngestReport report;
  return ReadDhcpLog(text, ingest::IngestOptions{}, report);
}

}  // namespace lockdown::logs
