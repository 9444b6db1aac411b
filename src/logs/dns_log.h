// On-disk DNS resolution log (TSV with header).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "dns/record.h"
#include "ingest/ingest.h"

namespace lockdown::logs {

/// dns.log schema for the ingest line driver (ingest::LogReader).
struct DnsLogFormat {
  using Record = dns::Resolution;
  static constexpr std::string_view kHeader = "ts\tclient\tqname\tanswer\tttl";
  /// Shortest row ParseRow accepts ("0\t00:00:00:00:00:00\tx\t0.0.0.0\t0").
  static constexpr std::size_t kMinRowBytes = 31;
  /// Parses one data row; nullopt on success, else the rejection's class.
  static std::optional<ingest::ErrorClass> ParseRow(std::string_view line,
                                                    dns::Resolution& r);
};

/// Writes resolutions as "ts\tclient\tqname\tanswer\tttl" rows.
void WriteDnsLog(std::ostream& out, std::span<const dns::Resolution> resolutions);

/// Parses a document produced by WriteDnsLog; nullopt on malformed input
/// (strict-mode read).
[[nodiscard]] std::optional<std::vector<dns::Resolution>> ReadDnsLog(
    std::string_view text);

/// Fault-tolerant read with line-granular recovery (see ingest/ingest.h).
[[nodiscard]] std::optional<std::vector<dns::Resolution>> ReadDnsLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report);

}  // namespace lockdown::logs
