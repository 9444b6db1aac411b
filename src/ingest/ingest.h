// Fault-tolerant ingest layer shared by every TSV log reader.
//
// Real collection-box logs (Zeek conn.log, DHCP/DNS/UA logs from a live dorm
// tap) arrive with truncated tails, garbage lines and partial rotations. The
// readers in flow/ and logs/ recover at line granularity through this layer:
// each malformed row is classified into a fixed error taxonomy and either
// aborts the read (strict mode, the historical behavior) or is skipped and
// accounted (tolerant mode), with an error budget bounding how much loss is
// acceptable before the file as a whole is rejected.
//
// Accounting contract, relied on by the differential fault-injection suite:
// for every reader and any input whatsoever,
//
//   report.kept + report.rejected == report.lines_total
//
// where lines_total counts every non-blank line except a valid header line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/io.h"
#include "util/strings.h"

namespace lockdown::ingest {

/// Strict reproduces the historical all-or-nothing readers: the first
/// malformed row rejects the whole document. Tolerant skips malformed rows
/// and fails only when the rejection rate exceeds the error budget.
enum class Mode : std::uint8_t { kStrict, kTolerant };

[[nodiscard]] constexpr const char* ToString(Mode mode) noexcept {
  return mode == Mode::kStrict ? "strict" : "tolerant";
}

/// Parses "strict"/"tolerant"; nullopt otherwise (for CLI flags).
[[nodiscard]] std::optional<Mode> ParseMode(std::string_view s) noexcept;

/// Why a line was rejected. Fixed taxonomy; every rejection lands in exactly
/// one class (see DESIGN.md §8 for the table).
enum class ErrorClass : std::uint8_t {
  kTruncatedLine,  ///< final line of a file with no trailing newline failed
  kFieldCount,     ///< wrong number of tab-separated fields
  kBadTimestamp,   ///< unparseable or overflowing timestamp field
  kBadIp,          ///< unparseable IPv4 field
  kBadMac,         ///< unparseable MAC field
  kBadNumber,      ///< unparseable numeric field (duration, port, bytes, ttl)
  kBadValue,       ///< parseable field with an invalid value (proto, empty UA)
  kBadHeader,      ///< header line missing or garbled
};
inline constexpr int kNumErrorClasses = 8;

[[nodiscard]] const char* ToString(ErrorClass error) noexcept;

/// Ingest failures that are about the environment, not the data: missing
/// files, open/read/write errors. Maps to exit code 2 in lockdown_cli.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& message) : std::runtime_error(message) {}
  /// Formats "path: op: strerror(err)" from the captured errno.
  IoError(const std::filesystem::path& path, const char* op, int err);
};

/// Malformed input beyond what the mode allows: any malformed row in strict
/// mode, or a rejection rate above the budget in tolerant mode. Maps to exit
/// code 3 in lockdown_cli.
class BudgetError : public std::runtime_error {
 public:
  explicit BudgetError(const std::string& message) : std::runtime_error(message) {}
};

struct IngestOptions {
  Mode mode = Mode::kStrict;
  /// Tolerant mode: maximum rejected/lines_total fraction before the whole
  /// document is rejected anyway. Ignored in strict mode.
  double max_error_rate = 0.01;
  /// How many offending lines to retain verbatim in the report.
  std::size_t max_samples = 10;
  /// When non-empty, every rejected line is appended verbatim to
  /// `quarantine_dir/<source>.rej` for later inspection or repair.
  std::filesystem::path quarantine_dir;
  /// Label for reports and the quarantine file name (usually the file name).
  std::string source = "input";
};

/// One retained offending line.
struct RejectedLine {
  std::uint64_t line = 0;  ///< 1-based line number in the source document
  ErrorClass error = ErrorClass::kBadValue;
  std::string text;  ///< the offending line, clamped to a sane length
};

/// Per-document ingest outcome; aggregable across files with Merge().
struct IngestReport {
  std::string source;
  std::uint64_t lines_total = 0;  ///< non-blank lines excluding a valid header
  std::uint64_t kept = 0;
  std::uint64_t rejected = 0;
  std::uint64_t by_class[kNumErrorClasses] = {};
  bool header_ok = true;
  std::vector<RejectedLine> samples;          ///< first max_samples rejections
  std::filesystem::path quarantine_file;      ///< set iff any line was written

  [[nodiscard]] double error_rate() const noexcept {
    return lines_total == 0 ? 0.0
                            : static_cast<double>(rejected) /
                                  static_cast<double>(lines_total);
  }

  /// Folds `other` into this report (totals, per-class counts, samples up to
  /// `max_samples`; header_ok ANDs). `source` becomes a "+"-joined list.
  void Merge(const IngestReport& other, std::size_t max_samples = 10);

  /// One-line human summary: "conn.log: kept 12034/12041, rejected 7
  /// (0.06%): 4 bad_number, 2 field_count, 1 truncated_line".
  [[nodiscard]] std::string Summary() const;
};

/// Folds a finished report into the obs metrics registry: ingest/lines_kept,
/// ingest/lines_rejected, and one ingest/rejected_<class> counter per
/// taxonomy class that rejected anything. No-op unless metrics are enabled.
void RecordReport(const IngestReport& report);

namespace detail {

/// Lazily opened quarantine sink; no file is created unless a line is
/// rejected. Throws IoError if the quarantine file cannot be written.
class QuarantineWriter {
 public:
  explicit QuarantineWriter(const IngestOptions& options);
  ~QuarantineWriter();
  QuarantineWriter(const QuarantineWriter&) = delete;
  QuarantineWriter& operator=(const QuarantineWriter&) = delete;

  void Add(std::string_view line);
  /// Flushes, verifies stream state, and records the path in the report.
  void Finish(IngestReport& report);

 private:
  struct State;
  std::filesystem::path target_;  // empty = quarantine disabled
  State* state_ = nullptr;
};

inline constexpr std::size_t kSampleClamp = 200;  // bytes kept per sample line

}  // namespace detail

/// Bytes per read of a log file. The ingest text buffer is one chunk plus
/// the partial line carried into the next one, whatever the file's size.
inline constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// Streaming line driver behind all four log readers. `Format` supplies the
/// reader's schema:
///
///   struct Format {
///     using Record = ...;
///     static constexpr std::string_view kHeader = ...;
///     static constexpr std::size_t kMinRowBytes = ...;  // shortest kept row
///     static std::optional<ErrorClass> ParseRow(std::string_view, Record&);
///   };
///
/// Feed() takes the document in pieces of any size (lines may straddle
/// them); Finish() ends it. Lines are numbered from 1; line 1 must be the
/// header; every other non-blank line goes through `ParseRow` (nullopt on
/// success, else the rejection's class), enforcing the accounting contract
/// above. A failing row that is the unterminated final segment of the
/// document is a `kTruncatedLine`. The result does not depend on how the
/// document was cut into pieces.
template <typename Format>
class LogReader {
 public:
  using Record = typename Format::Record;

  /// `size_hint` is the document's size in bytes when known: it bounds the
  /// kept-row count, so the record vector is allocated once and never grows.
  LogReader(IngestOptions options, IngestReport& report,
            std::uint64_t size_hint = 0)
      : options_(std::move(options)), report_(report), quarantine_(options_) {
    report_ = IngestReport{};
    report_.source = options_.source;
    records_.reserve(
        static_cast<std::size_t>(size_hint / (Format::kMinRowBytes + 1) + 1));
  }

  /// Feeds the next piece of the document. Returns false once the document
  /// is rejected outright (strict mode); later pieces are ignored.
  bool Feed(std::string_view chunk) {
    if (failed_) return false;
    if (!carry_.empty()) {
      const std::size_t nl = chunk.find('\n');
      if (nl == std::string_view::npos) {
        carry_.append(chunk);
        return true;
      }
      carry_.append(chunk.substr(0, nl));
      Line(carry_, true);
      carry_.clear();
      chunk.remove_prefix(nl + 1);
    }
    while (!failed_) {
      const std::size_t nl = chunk.find('\n');
      if (nl == std::string_view::npos) {
        carry_.assign(chunk);
        break;
      }
      Line(chunk.substr(0, nl), true);
      chunk.remove_prefix(nl + 1);
    }
    return !failed_;
  }

  /// Ends the document; call once. Returns nullopt when the document is
  /// rejected as a whole: any malformed row (or missing header) in strict
  /// mode, or a rejection rate above `max_error_rate` in tolerant mode.
  /// The report always says what happened, including why nullopt came back.
  std::optional<std::vector<Record>> Finish() {
    if (!failed_) Line(carry_, false);
    quarantine_.Finish(report_);
    if (failed_ || (options_.mode == Mode::kTolerant &&
                    report_.error_rate() > options_.max_error_rate)) {
      return std::nullopt;
    }
    return std::move(records_);
  }

 private:
  void Line(std::string_view line, bool terminated) {
    ++line_no_;
    if (line_no_ == 1) {
      report_.header_ok = util::Trim(line) == Format::kHeader;
      if (report_.header_ok) return;
      if (options_.mode == Mode::kStrict) {
        failed_ = true;
        return;
      }
    }
    if (util::Trim(line).empty()) return;
    ++report_.lines_total;
    if (line_no_ == 1) {
      Reject(line, ErrorClass::kBadHeader);
      return;
    }
    Record& record = records_.emplace_back();
    const std::optional<ErrorClass> err = Format::ParseRow(line, record);
    if (!err) {
      ++report_.kept;
      return;
    }
    records_.pop_back();
    Reject(line, terminated ? *err : ErrorClass::kTruncatedLine);
  }

  void Reject(std::string_view line, ErrorClass err) {
    ++report_.rejected;
    ++report_.by_class[static_cast<int>(err)];
    if (report_.samples.size() < options_.max_samples) {
      report_.samples.push_back(RejectedLine{
          line_no_, err, std::string(line.substr(0, detail::kSampleClamp))});
    }
    quarantine_.Add(line);
    if (options_.mode == Mode::kStrict) failed_ = true;
  }

  IngestOptions options_;
  IngestReport& report_;
  detail::QuarantineWriter quarantine_;
  std::vector<Record> records_;
  std::string carry_;  // the current line so far when it straddles pieces
  std::uint64_t line_no_ = 0;
  bool failed_ = false;
};

/// Reads a whole in-memory document: the line driver fed one piece.
template <typename Format>
std::optional<std::vector<typename Format::Record>> ReadLog(
    std::string_view text, const IngestOptions& options, IngestReport& report) {
  LogReader<Format> reader(options, report, text.size());
  reader.Feed(text);
  return reader.Finish();
}

namespace detail {

/// Reads a file front to back through io::File (so the shim's fault
/// injection and retry apply) in pieces of at most kChunkBytes, counting
/// ingest/bytes_read. Throws ingest::IoError.
class ChunkReader {
 public:
  explicit ChunkReader(const std::filesystem::path& path);

  /// File size from fstat.
  [[nodiscard]] std::uint64_t Size();
  /// The next piece, valid until the next call; empty at end of file.
  [[nodiscard]] std::string_view Next();
  /// Checked close.
  void Close();

 private:
  io::File file_;
  std::unique_ptr<char[]> buf_;
};

}  // namespace detail

/// Reads a log file in kChunkBytes pieces through the line driver; the same
/// rules and results as ReadLog over the file's contents. A strict read
/// stops reading at the first rejected line. Throws IoError.
template <typename Format>
std::optional<std::vector<typename Format::Record>> ReadLogFile(
    const std::filesystem::path& path, const IngestOptions& options,
    IngestReport& report) {
  detail::ChunkReader in(path);
  LogReader<Format> reader(options, report, in.Size());
  for (std::string_view chunk = in.Next(); !chunk.empty() && reader.Feed(chunk);
       chunk = in.Next()) {
  }
  in.Close();
  return reader.Finish();
}

}  // namespace lockdown::ingest
