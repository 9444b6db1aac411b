// Annotated lock primitives (DESIGN.md §11).
//
// Thin wrappers over std::mutex / std::condition_variable carrying the clang
// Thread Safety Analysis capability attributes, so `clang++ -Wthread-safety
// -Werror` (the `lint` tier) statically proves every GUARDED_BY field is
// only touched with its lock held. libstdc++'s std::mutex has no such
// attributes, which is why project code must use these wrappers instead of
// the raw primitives — lockdown_lint rule LD007 enforces exactly that
// outside this header.
//
// The wrappers add nothing at runtime: every member is a single inlined
// forward to the std primitive, so TSan/ASan behavior and performance are
// unchanged.
#pragma once

#include <condition_variable>
#include <mutex>  // lockdown-lint: allow(LD007) the one annotated wrapping site

#include "util/thread_annotations.h"

namespace lockdown::util {

/// Exclusive lock. A `Mutex` member is a capability; name it in GUARDED_BY
/// on every field it protects.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { impl_.lock(); }
  void Unlock() RELEASE() { impl_.unlock(); }
  [[nodiscard]] bool TryLock() TRY_ACQUIRE(true) { return impl_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex impl_;
};

/// RAII guard, the project's spelling of std::lock_guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to a Mutex at each wait site (the abseil
/// CondVar shape). Wait atomically releases `mu`, sleeps, and re-acquires
/// before returning, so from the analysis' point of view the capability is
/// held across the call — hence REQUIRES, not ACQUIRE/RELEASE.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    // std::condition_variable wants a unique_lock; adopt the already-held
    // mutex for the duration of the wait and release the adapter after so
    // ownership stays with the caller's MutexLock.
    std::unique_lock<std::mutex> adapter(mu.impl_, std::adopt_lock);
    cv_.wait(adapter);
    adapter.release();
  }

  /// Waits until pred() holds; pred is evaluated with `mu` held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lockdown::util
