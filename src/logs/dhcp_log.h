// On-disk DHCP log format (TSV with header), so the pipeline can run from
// collected logs rather than a live tap — the deployment mode of DeKoven et
// al.'s infrastructure.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "dhcp/lease.h"
#include "ingest/ingest.h"

namespace lockdown::logs {

/// dhcp.log schema for the ingest line driver (ingest::LogReader).
struct DhcpLogFormat {
  using Record = dhcp::Lease;
  static constexpr std::string_view kHeader = "start\tend\tmac\tip";
  /// Shortest row ParseRow accepts ("0\t0\t00:00:00:00:00:00\t0.0.0.0").
  static constexpr std::size_t kMinRowBytes = 29;
  /// Parses one data row; nullopt on success, else the rejection's class.
  static std::optional<ingest::ErrorClass> ParseRow(std::string_view line,
                                                    dhcp::Lease& lease);
};

/// Writes leases as "start\tend\tmac\tip" rows under a header.
void WriteDhcpLog(std::ostream& out, std::span<const dhcp::Lease> leases);

/// Parses a document produced by WriteDhcpLog; nullopt on malformed input
/// (strict-mode read).
[[nodiscard]] std::optional<std::vector<dhcp::Lease>> ReadDhcpLog(
    std::string_view text);

/// Fault-tolerant read with line-granular recovery (see ingest/ingest.h).
[[nodiscard]] std::optional<std::vector<dhcp::Lease>> ReadDhcpLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report);

}  // namespace lockdown::logs
