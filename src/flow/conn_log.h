// conn.log-style serialization of flow records (Zeek-compatible field
// layout: ts, duration, orig/resp endpoints, byte counts).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "flow/record.h"
#include "ingest/ingest.h"

namespace lockdown::flow {

/// conn.log schema for the ingest line driver (ingest::LogReader).
struct ConnLogFormat {
  using Record = FlowRecord;
  static constexpr std::string_view kHeader =
      "ts\tduration\tid.orig_h\tid.resp_h\tid.resp_p\tproto\torig_bytes\t"
      "resp_bytes";
  /// Shortest row ParseRow accepts ("0\t\t0.0.0.0\t0.0.0.0\t0\ttcp\t0\t0").
  static constexpr std::size_t kMinRowBytes = 28;
  /// Parses one data row; nullopt on success, else the rejection's class.
  /// A row of the common shape (single tabs, plain decimal digits, dotted
  /// quads, `tcp`/`udp`, no padding) is read in one left-to-right pass;
  /// any other row goes to detail::ParseConnRowGeneral, so the accepted
  /// set, the parsed values and the rejection classes are the general
  /// parser's.
  static std::optional<ingest::ErrorClass> ParseRow(std::string_view line,
                                                    FlowRecord& r);
};

namespace detail {

/// The field-by-field row parser: trims the row, splits it into exactly
/// eight fields and parses each with the generic number and address
/// parsers. It defines what ParseRow accepts.
std::optional<ingest::ErrorClass> ParseConnRowGeneral(std::string_view line,
                                                      FlowRecord& r);

}  // namespace detail

/// Writes records as a TSV document with a header line.
void WriteConnLog(std::ostream& out, const std::vector<FlowRecord>& records);

/// Parses a conn.log document produced by WriteConnLog. Returns nullopt if
/// the header is missing or a row is malformed (strict-mode read).
[[nodiscard]] std::optional<std::vector<FlowRecord>> ReadConnLog(std::string_view text);

/// Fault-tolerant read: line-granular recovery under `options`, with every
/// skipped row classified and accounted in `report` (see ingest/ingest.h).
[[nodiscard]] std::optional<std::vector<FlowRecord>> ReadConnLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report);

}  // namespace lockdown::flow
