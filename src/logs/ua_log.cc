#include "logs/ua_log.h"

#include <charconv>
#include <ostream>

#include "util/strings.h"

namespace lockdown::logs {

std::optional<ingest::ErrorClass> UaLogFormat::ParseRow(std::string_view line,
                                                        UaRecord& r) {
  // The UA field may contain any byte except tab/newline, so the raw line is
  // split untrimmed (the agent text is trimmed on its own at the end).
  std::string_view fields[3];
  if (!util::SplitExact(line, '\t', fields)) {
    return ingest::ErrorClass::kFieldCount;
  }
  const auto* end = fields[0].data() + fields[0].size();
  const auto res = std::from_chars(fields[0].data(), end, r.ts);
  // ec catches overflow: an out-of-range ts consumes every digit (ptr ==
  // end) but must still reject the row, not record timestamp 0.
  if (res.ec != std::errc() || res.ptr != end) {
    return ingest::ErrorClass::kBadTimestamp;
  }
  const auto ip = net::Ipv4Address::Parse(fields[1]);
  if (!ip) return ingest::ErrorClass::kBadIp;
  if (fields[2].empty()) return ingest::ErrorClass::kBadValue;
  r.client_ip = *ip;
  r.user_agent = std::string(util::Trim(fields[2]));
  return std::nullopt;
}

void WriteUaLog(std::ostream& out, const std::vector<UaRecord>& records) {
  out << UaLogFormat::kHeader << '\n';
  for (const UaRecord& r : records) {
    out << r.ts << '\t' << r.client_ip.ToString() << '\t';
    for (char c : r.user_agent) {
      out << (c == '\t' || c == '\n' ? ' ' : c);
    }
    out << '\n';
  }
}

std::optional<std::vector<UaRecord>> ReadUaLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report) {
  return ingest::ReadLog<UaLogFormat>(text, options, report);
}

std::optional<std::vector<UaRecord>> ReadUaLog(std::string_view text) {
  ingest::IngestReport report;
  return ReadUaLog(text, ingest::IngestOptions{}, report);
}

}  // namespace lockdown::logs
