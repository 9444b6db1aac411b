#include "flow/conn_log.h"

#include <charconv>
#include <cmath>
#include <ostream>

#include "util/csv.h"
#include "util/strings.h"

namespace lockdown::flow {

namespace {
template <typename T>
bool ParseNum(std::string_view s, T& out) {
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out);
  return res.ec == std::errc() && res.ptr == end;
}
}  // namespace

/// The acceptance set is the historical ReadConnLog's minus non-finite and
/// negative durations (kBadValue): strtod accepts "nan", "inf" and "-1", and
/// the figures cast the duration to an integer timestamp, which is undefined
/// for NaN/inf.
std::optional<ingest::ErrorClass> ConnLogFormat::ParseRow(std::string_view line,
                                                          FlowRecord& r) {
  std::string_view fields[8];
  if (!util::SplitExact(util::Trim(line), '\t', fields)) {
    return ingest::ErrorClass::kFieldCount;
  }
  if (!ParseNum(fields[0], r.start)) return ingest::ErrorClass::kBadTimestamp;
  if (!util::ParseDouble(fields[1], r.duration_s)) {
    return ingest::ErrorClass::kBadNumber;
  }
  if (!std::isfinite(r.duration_s) || r.duration_s < 0.0) {
    return ingest::ErrorClass::kBadValue;
  }
  const auto client = net::Ipv4Address::Parse(fields[2]);
  if (!client) return ingest::ErrorClass::kBadIp;
  const auto server = net::Ipv4Address::Parse(fields[3]);
  if (!server) return ingest::ErrorClass::kBadIp;
  unsigned port = 0;
  if (!ParseNum(fields[4], port) || port > 65535) {
    return ingest::ErrorClass::kBadNumber;
  }
  if (fields[5] == "tcp") {
    r.proto = net::Protocol::kTcp;
  } else if (fields[5] == "udp") {
    r.proto = net::Protocol::kUdp;
  } else {
    return ingest::ErrorClass::kBadValue;
  }
  if (!ParseNum(fields[6], r.bytes_up)) return ingest::ErrorClass::kBadNumber;
  if (!ParseNum(fields[7], r.bytes_down)) return ingest::ErrorClass::kBadNumber;
  r.client_ip = *client;
  r.server_ip = *server;
  r.server_port = static_cast<net::Port>(port);
  return std::nullopt;
}

void WriteConnLog(std::ostream& out, const std::vector<FlowRecord>& records) {
  out << ConnLogFormat::kHeader << '\n';
  for (const FlowRecord& r : records) {
    out << r.start << '\t' << r.duration_s << '\t' << r.client_ip.ToString()
        << '\t' << r.server_ip.ToString() << '\t' << r.server_port << '\t'
        << net::ToString(r.proto) << '\t' << r.bytes_up << '\t' << r.bytes_down
        << '\n';
  }
}

std::optional<std::vector<FlowRecord>> ReadConnLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report) {
  return ingest::ReadLog<ConnLogFormat>(text, options, report);
}

std::optional<std::vector<FlowRecord>> ReadConnLog(std::string_view text) {
  ingest::IngestReport report;
  return ReadConnLog(text, ingest::IngestOptions{}, report);
}

}  // namespace lockdown::flow
