// On-disk User-Agent sighting log (TSV with header). UA strings may contain
// anything except tab/newline, which the writer rejects by substitution.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/ingest.h"
#include "net/ipv4.h"
#include "util/time.h"

namespace lockdown::logs {

/// A cleartext UA observation, owned-string form (the offline counterpart of
/// sim::UaSighting).
struct UaRecord {
  util::Timestamp ts = 0;
  net::Ipv4Address client_ip;
  std::string user_agent;
};

/// ua.log schema for the ingest line driver (ingest::LogReader).
struct UaLogFormat {
  using Record = UaRecord;
  static constexpr std::string_view kHeader = "ts\tclient\tuser_agent";
  /// Shortest row ParseRow accepts ("0\t0.0.0.0\tx").
  static constexpr std::size_t kMinRowBytes = 11;
  /// Parses one data row; nullopt on success, else the rejection's class.
  static std::optional<ingest::ErrorClass> ParseRow(std::string_view line,
                                                    UaRecord& r);
};

/// Writes sightings as "ts\tclient\tuser_agent" rows.
void WriteUaLog(std::ostream& out, const std::vector<UaRecord>& records);

/// Parses a document produced by WriteUaLog; nullopt on malformed input
/// (strict-mode read).
[[nodiscard]] std::optional<std::vector<UaRecord>> ReadUaLog(std::string_view text);

/// Fault-tolerant read with line-granular recovery (see ingest/ingest.h).
[[nodiscard]] std::optional<std::vector<UaRecord>> ReadUaLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report);

}  // namespace lockdown::logs
