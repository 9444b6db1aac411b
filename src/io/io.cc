#include "io/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "util/mutex.h"
#include "util/strings.h"

namespace lockdown::io {

namespace {

struct PolicyState {
  util::Mutex mu;
  RetryPolicy policy GUARDED_BY(mu);
};

PolicyState& PolicyHolder() {
  static PolicyState* s = new PolicyState;  // never destroyed (exit-safe)
  return *s;
}

std::atomic<SleepFn> g_sleep{nullptr};

void SleepUs(std::uint64_t micros) {
  if (micros == 0) return;
  if (const SleepFn fn = g_sleep.load(std::memory_order_relaxed)) {
    fn(micros);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

void CountRetry() {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& retries = obs::GetCounter("io/retries", "retries");
  retries.Increment();
}

/// One shim operation: consult the injector, run a single raw attempt,
/// absorb transient failures per the retry policy, throw IoError on
/// permanent ones. `raw` receives the injected short-IO flag (only
/// read/write attempts honor it) and returns the syscall result with errno
/// set on -1. The clean fast path is one relaxed atomic load plus the
/// syscall.
template <typename Fn>
long long Run(Op op, const std::filesystem::path& path, const char* opname,
              Fn&& raw) {
  RetryPolicy policy;      // fetched on the first failure only
  bool have_policy = false;
  int eio_left = 0;
  for (int attempt = 1;; ++attempt) {
    int injected_err = 0;
    bool short_io = false;
    if (FaultInjectionEnabled()) {
      if (const auto fault = NextFault(op)) {
        injected_err = fault->err;
        short_io = fault->short_io;
      }
    }
    long long r;
    if (injected_err != 0) {
      r = -1;
      errno = injected_err;
    } else {
      r = raw(short_io);
    }
    if (r >= 0) return r;
    const int err = errno;
    if (!have_policy) {
      policy = GetRetryPolicy();
      eio_left = policy.eio_budget;
      have_policy = true;
    }
    bool transient = RetryPolicy::AlwaysTransient(err);
    if (!transient && err == EIO && eio_left > 0) {
      --eio_left;
      transient = true;
    }
    if (!transient || attempt >= policy.max_attempts) {
      throw IoError(path, opname, err);
    }
    CountRetry();
    SleepUs(policy.BackoffUs(attempt));
  }
}

}  // namespace

IoError::IoError(std::filesystem::path path, std::string op, int err)
    : std::runtime_error(path.string() + ": " + op + ": " +
                         util::ErrnoString(err)),
      path_(std::move(path)),
      op_(std::move(op)),
      err_(err) {}

std::uint64_t RetryPolicy::BackoffUs(int retry) const noexcept {
  std::uint64_t us = initial_backoff_us;
  for (int i = 1; i < retry && us < max_backoff_us; ++i) us *= 2;
  return us < max_backoff_us ? us : max_backoff_us;
}

bool RetryPolicy::AlwaysTransient(int err) noexcept {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

RetryPolicy GetRetryPolicy() {
  PolicyState& s = PolicyHolder();
  util::MutexLock lock(s.mu);
  return s.policy;
}

void SetRetryPolicy(const RetryPolicy& policy) {
  PolicyState& s = PolicyHolder();
  util::MutexLock lock(s.mu);
  s.policy = policy;
}

void SetSleepFnForTest(SleepFn fn) noexcept {
  g_sleep.store(fn, std::memory_order_relaxed);
}

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);  // best-effort; Close() is the checked path
}

File File::Create(const std::filesystem::path& path) {
  const int fd = static_cast<int>(Run(Op::kOpen, path, "open", [&](bool) {
    return static_cast<long long>(
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  }));
  return File(fd, path);
}

File File::OpenRead(const std::filesystem::path& path) {
  const int fd = static_cast<int>(Run(Op::kOpen, path, "open", [&](bool) {
    return static_cast<long long>(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  }));
  return File(fd, path);
}

void File::PWriteAll(std::span<const std::byte> data, std::uint64_t offset) {
  const std::byte* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const long long n = Run(Op::kWrite, path_, "pwrite", [&](bool short_io) {
      std::size_t count = left;
      if (short_io && count > 1) count = (count + 1) / 2;
      return static_cast<long long>(
          ::pwrite(fd_, p, count, static_cast<off_t>(offset)));
    });
    p += n;
    offset += static_cast<std::uint64_t>(n);
    left -= static_cast<std::size_t>(n);
  }
}

void File::WriteAll(std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const long long n = Run(Op::kWrite, path_, "write", [&](bool short_io) {
      std::size_t count = left;
      if (short_io && count > 1) count = (count + 1) / 2;
      return static_cast<long long>(::write(fd_, p, count));
    });
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

std::size_t File::ReadSome(std::span<std::byte> out) {
  if (out.empty()) return 0;
  const long long n = Run(Op::kRead, path_, "read", [&](bool short_io) {
    std::size_t count = out.size();
    if (short_io && count > 1) count = (count + 1) / 2;
    return static_cast<long long>(::read(fd_, out.data(), count));
  });
  return static_cast<std::size_t>(n);
}

std::uint64_t File::Size() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw IoError(path_, "fstat", errno);
  return static_cast<std::uint64_t>(st.st_size);
}

void File::Truncate(std::uint64_t size) {
  Run(Op::kTruncate, path_, "ftruncate", [&](bool) {
    return static_cast<long long>(::ftruncate(fd_, static_cast<off_t>(size)));
  });
}

void File::Fsync() {
  if (!obs::MetricsEnabled()) {
    Run(Op::kFsync, path_, "fsync",
        [&](bool) { return static_cast<long long>(::fsync(fd_)); });
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  Run(Op::kFsync, path_, "fsync",
      [&](bool) { return static_cast<long long>(::fsync(fd_)); });
  static obs::Histogram& fsync_us =
      obs::GetHistogram("io/fsync_us", obs::Buckets::kDurationUs, "us");
  fsync_us.Observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void File::Close() {
  if (fd_ < 0) return;
  const int fd = std::exchange(fd_, -1);  // gone either way (POSIX close)
  int injected = 0;
  if (FaultInjectionEnabled()) {
    if (const auto fault = NextFault(Op::kClose); fault && fault->err != 0) {
      injected = fault->err;
    }
  }
  if (injected != 0) {
    ::close(fd);  // don't leak the descriptor while simulating the failure
    throw IoError(path_, "close", injected);
  }
  // close is deliberately not retried: after EINTR the descriptor state is
  // unspecified and a retry could close a recycled fd.
  if (::close(fd) != 0) throw IoError(path_, "close", errno);
}

void Rename(const std::filesystem::path& from,
            const std::filesystem::path& to) {
  Run(Op::kRename, to, "rename", [&](bool) {
    return static_cast<long long>(::rename(from.c_str(), to.c_str()));
  });
}

void FsyncDir(const std::filesystem::path& dir) {
  const int fd = static_cast<int>(Run(Op::kOpen, dir, "open", [&](bool) {
    return static_cast<long long>(
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  }));
  try {
    Run(Op::kFsync, dir, "fsync",
        [&](bool) { return static_cast<long long>(::fsync(fd)); });
  } catch (const IoError& e) {
    // The documented carve-out: some filesystems cannot sync a directory
    // and say so with EINVAL/ENOTSUP — the rename is as durable as it gets
    // there. Anything else is a real failure.
    if (e.error_code() != EINVAL && e.error_code() != ENOTSUP) {
      ::close(fd);
      throw;
    }
  }
  ::close(fd);  // best-effort: a directory fd holds no dirty data
}

bool TryRemove(const std::filesystem::path& path) noexcept {
  return ::unlink(path.c_str()) == 0;
}

FileStreamBuf::FileStreamBuf(File file, std::size_t buffer_bytes)
    : file_(std::move(file)), buf_(buffer_bytes > 0 ? buffer_bytes : 1) {
  setp(buf_.data(), buf_.data() + buf_.size());
}

FileStreamBuf::int_type FileStreamBuf::overflow(int_type ch) {
  FlushBuffer();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FileStreamBuf::sync() {
  FlushBuffer();
  return 0;
}

void FileStreamBuf::FlushBuffer() {
  const char* base = pbase();
  const std::size_t n = static_cast<std::size_t>(pptr() - base);
  // Reset before writing so an exception cannot re-send the same bytes on a
  // later flush; the data itself stays valid in buf_ for this call.
  setp(buf_.data(), buf_.data() + buf_.size());
  if (n > 0) file_.WriteAll(std::string_view(base, n));
}

}  // namespace lockdown::io
