// io::File — the sanctioned file-IO surface for src/store and src/ingest
// (DESIGN.md §12; lockdown_lint rule LD008 bans raw syscalls and iostreams
// there).
//
// Every operation routes through one code path that (a) consults the
// deterministic IoFaultInjector (io/fault.h) before touching the kernel,
// (b) absorbs transient failures — EINTR/EAGAIN always, EIO up to the
// policy's budget — with bounded exponential backoff, and (c) surfaces
// permanent failures as io::IoError carrying the path, operation and errno
// (the IO error taxonomy; the CLI maps it to exit 2). Short writes,
// injected or real, are completed by the loops in WriteAll/PWriteAll, so
// callers only ever see full transfers or an exception; ReadSome returns
// what one read gave, and its callers loop to EOF.
//
// When no fault plan is installed the shim's only additions over the raw
// syscalls are one relaxed atomic load per operation and the (empty) retry
// loop frame — measured free at bench scale, mirroring the obs discipline.
//
//   io::File f = io::File::Create(tmp);
//   f.PWriteAll(bytes, offset);
//   f.Fsync();
//   f.Close();                       // checked: close errors are real errors
//   io::Rename(tmp, target);
//   io::FsyncDir(target.parent_path());
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "io/fault.h"

namespace lockdown::io {

/// A failed file operation: path, operation name and errno, formatted
/// "path: op: strerror". Permanent by the time it reaches a caller — the
/// retry policy has already absorbed what it could.
class IoError : public std::runtime_error {
 public:
  IoError(std::filesystem::path path, std::string op, int err);

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] const std::string& op() const noexcept { return op_; }
  [[nodiscard]] int error_code() const noexcept { return err_; }

 private:
  std::filesystem::path path_;
  std::string op_;
  int err_;
};

/// Bounded exponential backoff for transient faults. Deterministic: the
/// backoff for retry k is initial_backoff_us * 2^(k-1), capped at
/// max_backoff_us — no jitter, so tests can assert the exact schedule.
struct RetryPolicy {
  int max_attempts = 6;                    ///< total tries per operation
  std::uint64_t initial_backoff_us = 100;  ///< before the first retry
  std::uint64_t max_backoff_us = 50'000;   ///< backoff ceiling
  /// EIO absorptions allowed per operation; 0 (default) treats EIO as
  /// permanent. A small budget models a disk that recovers on re-read.
  int eio_budget = 0;

  /// Backoff before retry number `retry` (1-based). Overflow-safe.
  [[nodiscard]] std::uint64_t BackoffUs(int retry) const noexcept;

  /// EINTR/EAGAIN (and EWOULDBLOCK): transient regardless of budget.
  [[nodiscard]] static bool AlwaysTransient(int err) noexcept;
};

/// The process-wide policy the shim applies. Thread-safe; reads happen only
/// on a failed attempt, so swapping policies costs clean runs nothing.
[[nodiscard]] RetryPolicy GetRetryPolicy();
void SetRetryPolicy(const RetryPolicy& policy);

/// Replaces the real backoff sleep (tests get a virtual clock: capture the
/// requested durations instead of waiting them out). nullptr restores the
/// real sleep.
using SleepFn = void (*)(std::uint64_t micros);
void SetSleepFnForTest(SleepFn fn) noexcept;

/// Move-only owned file descriptor. All methods throw IoError on permanent
/// failure; the destructor closes best-effort (use Close() when close errors
/// matter — after writes, they do).
class File {
 public:
  File() noexcept = default;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// O_WRONLY|O_CREAT|O_TRUNC, mode 0644.
  [[nodiscard]] static File Create(const std::filesystem::path& path);
  /// O_RDONLY.
  [[nodiscard]] static File OpenRead(const std::filesystem::path& path);

  /// Writes all of `data` at `offset` (pwrite loop; completes short writes).
  void PWriteAll(std::span<const std::byte> data, std::uint64_t offset);
  /// Appends all of `data` at the current position (write loop).
  void WriteAll(std::string_view data);
  /// One read at the current position; returns bytes read, 0 at EOF.
  [[nodiscard]] std::size_t ReadSome(std::span<std::byte> out);

  [[nodiscard]] std::uint64_t Size();
  void Truncate(std::uint64_t size);
  /// fsync, timed into the io/fsync_us histogram when metrics are on.
  void Fsync();
  /// Checked close; idempotent once closed. The fd is gone either way.
  void Close();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  File(int fd, std::filesystem::path path) noexcept
      : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::filesystem::path path_;
};

/// rename(2) through the shim (Op::kRename). Throws IoError naming `to`.
void Rename(const std::filesystem::path& from, const std::filesystem::path& to);

/// Opens `dir` and fsyncs it — the step that makes a rename durable.
/// Filesystems that cannot sync directories return EINVAL (or ENOTSUP);
/// that, and only that, is swallowed (the documented carve-out). Every
/// other failure — including the directory open — throws.
void FsyncDir(const std::filesystem::path& dir);

/// unlink best-effort, for destructors and sweepers: no injection, no
/// exceptions. Returns true when the file was removed.
bool TryRemove(const std::filesystem::path& path) noexcept;

/// A std::streambuf over io::File for code that formats into a std::ostream
/// (the log exporters): bounded buffer, flushed through File::WriteAll so
/// injection/retry cover it. Construct the ostream with
/// exceptions(std::ios::badbit) to propagate IoError out of operator<<.
/// flush() the stream, then Close() the file — the destructor drops
/// unflushed bytes by design (an exception mid-write must not write more).
class FileStreamBuf final : public std::streambuf {
 public:
  explicit FileStreamBuf(File file, std::size_t buffer_bytes = 1 << 16);

  [[nodiscard]] File& file() noexcept { return file_; }

 protected:
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  void FlushBuffer();

  File file_;
  std::vector<char> buf_;
};

}  // namespace lockdown::io
