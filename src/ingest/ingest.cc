#include "ingest/ingest.h"

#include <cerrno>
#include <memory>
#include <span>
#include <sstream>

#include "io/io.h"
#include "obs/obs.h"
#include "util/strings.h"

namespace lockdown::ingest {

std::optional<Mode> ParseMode(std::string_view s) noexcept {
  if (s == "strict") return Mode::kStrict;
  if (s == "tolerant") return Mode::kTolerant;
  return std::nullopt;
}

const char* ToString(ErrorClass error) noexcept {
  switch (error) {
    case ErrorClass::kTruncatedLine: return "truncated_line";
    case ErrorClass::kFieldCount: return "field_count";
    case ErrorClass::kBadTimestamp: return "bad_timestamp";
    case ErrorClass::kBadIp: return "bad_ip";
    case ErrorClass::kBadMac: return "bad_mac";
    case ErrorClass::kBadNumber: return "bad_number";
    case ErrorClass::kBadValue: return "bad_value";
    case ErrorClass::kBadHeader: return "bad_header";
  }
  return "unknown";
}

IoError::IoError(const std::filesystem::path& path, const char* op, int err)
    : std::runtime_error(path.string() + ": " + op + ": " + util::ErrnoString(err)) {}

void IngestReport::Merge(const IngestReport& other, std::size_t max_samples) {
  if (source.empty()) {
    source = other.source;
  } else if (!other.source.empty()) {
    source += "+" + other.source;
  }
  lines_total += other.lines_total;
  kept += other.kept;
  rejected += other.rejected;
  for (int i = 0; i < kNumErrorClasses; ++i) by_class[i] += other.by_class[i];
  header_ok = header_ok && other.header_ok;
  for (const RejectedLine& s : other.samples) {
    if (samples.size() >= max_samples) break;
    samples.push_back(s);
  }
}

std::string IngestReport::Summary() const {
  std::ostringstream out;
  out << (source.empty() ? "input" : source) << ": kept " << kept << "/"
      << lines_total;
  if (rejected == 0) {
    out << ", no rejected lines";
    if (!header_ok) out << " (header missing)";
    return std::move(out).str();
  }
  out << ", rejected " << rejected << " ("
      << util::FormatDouble(100.0 * error_rate(), 2) << "%):";
  bool first = true;
  for (int i = 0; i < kNumErrorClasses; ++i) {
    if (by_class[i] == 0) continue;
    out << (first ? " " : ", ") << by_class[i] << " "
        << ToString(static_cast<ErrorClass>(i));
    first = false;
  }
  return std::move(out).str();
}

void RecordReport(const IngestReport& report) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& kept = obs::GetCounter("ingest/lines_kept", "lines");
  static obs::Counter& rejected =
      obs::GetCounter("ingest/lines_rejected", "lines");
  kept.Add(report.kept);
  rejected.Add(report.rejected);
  for (int i = 0; i < kNumErrorClasses; ++i) {
    if (report.by_class[i] == 0) continue;
    obs::GetCounter(
        std::string("ingest/rejected_") + ToString(static_cast<ErrorClass>(i)),
        "lines")
        .Add(report.by_class[i]);
  }
}

namespace detail {
namespace {

// Ingest callers (and the CLI's exit-code mapping) speak ingest::IoError;
// re-badge the shim's exception at the boundary.
[[noreturn]] void Rebadge(const io::IoError& e) {
  throw IoError(e.path(), e.op().c_str(), e.error_code());
}

}  // namespace

ChunkReader::ChunkReader(const std::filesystem::path& path)
    : buf_(std::make_unique<char[]>(kChunkBytes)) {
  try {
    file_ = io::File::OpenRead(path);
  } catch (const io::IoError& e) {
    Rebadge(e);
  }
}

std::uint64_t ChunkReader::Size() {
  try {
    return file_.Size();
  } catch (const io::IoError& e) {
    Rebadge(e);
  }
}

std::string_view ChunkReader::Next() {
  std::size_t n = 0;
  try {
    n = file_.ReadSome(
        std::as_writable_bytes(std::span<char>(buf_.get(), kChunkBytes)));
  } catch (const io::IoError& e) {
    Rebadge(e);
  }
  if (obs::MetricsEnabled()) {
    static obs::Counter& bytes_read = obs::GetCounter("ingest/bytes_read", "bytes");
    bytes_read.Add(n);
  }
  return {buf_.get(), n};
}

void ChunkReader::Close() {
  try {
    file_.Close();
  } catch (const io::IoError& e) {
    Rebadge(e);
  }
}

struct QuarantineWriter::State {
  io::File out;
};

QuarantineWriter::QuarantineWriter(const IngestOptions& options) {
  if (options.quarantine_dir.empty()) return;
  target_ = options.quarantine_dir /
            (options.source.empty() ? "input.rej" : options.source + ".rej");
}

QuarantineWriter::~QuarantineWriter() { delete state_; }

void QuarantineWriter::Add(std::string_view line) {
  if (target_.empty()) return;
  try {
    if (state_ == nullptr) {
      std::error_code ec;
      std::filesystem::create_directories(target_.parent_path(), ec);
      if (ec) throw IoError(target_.parent_path(), "mkdir", ec.value());
      state_ = new State{io::File::Create(target_)};
    }
    state_->out.WriteAll(std::string(line) + '\n');
  } catch (const io::IoError& e) {
    Rebadge(e);
  }
}

void QuarantineWriter::Finish(IngestReport& report) {
  if (state_ == nullptr) return;
  try {
    state_->out.Close();
  } catch (const io::IoError& e) {
    Rebadge(e);
  }
  report.quarantine_file = target_;
}

}  // namespace detail
}  // namespace lockdown::ingest
