// Fixed-size thread pool with a deterministic ParallelFor.
//
// The determinism contract every parallel caller in this codebase relies on:
// ParallelFor(n, grain, fn) decomposes [0, n) into the SAME fixed chunk set
// — chunk c covers [c*grain, min((c+1)*grain, n)) — regardless of how many
// threads execute them. Workers race only over which chunk they pick up
// next; a chunk's [begin, end) never depends on scheduling. A caller that
// (a) writes only to per-chunk or per-index slots inside fn and (b) merges
// per-chunk results in ascending chunk order therefore produces output that
// is byte-identical whether the pool has 0 workers (serial fallback, chunks
// run inline in order) or 64. tests/core/parallel_equivalence_test.cc holds
// the whole pipeline to exactly this property.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lockdown::util {

/// Upper bound on any resolved thread count: a typo such as
/// LOCKDOWN_THREADS=100000 must not ask the OS for 100k threads.
inline constexpr int kMaxThreads = 256;

/// Effective thread count for a requested value:
///   requested >  0  -> requested
///   requested == 0  -> LOCKDOWN_THREADS if set (0 or 1 => serial),
///                      else std::thread::hardware_concurrency().
/// The result is always in [1, kMaxThreads] (1 means "run everything on the
/// caller"). A malformed LOCKDOWN_THREADS value is treated as unset.
[[nodiscard]] int ResolveThreadCount(int requested = 0) noexcept;

class ThreadPool {
 public:
  /// A pool of `threads` total execution lanes, *including* the calling
  /// thread: `threads - 1` workers are spawned, and the caller participates
  /// in every ParallelFor. `threads <= 1` spawns nothing — ParallelFor then
  /// runs all chunks inline, in chunk order.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + caller); >= 1.
  [[nodiscard]] int num_threads() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(chunk, begin, end) over the fixed decomposition of [0, n) into
  /// chunks of `grain` (last chunk may be short). Blocks until every chunk
  /// has finished. The first exception thrown by fn is rethrown here (all
  /// remaining chunks still run to completion). Not reentrant: fn must not
  /// call ParallelFor on the same pool.
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t chunk, std::size_t begin,
                                            std::size_t end)>& fn) const;

  /// Number of chunks ParallelFor(n, grain, ...) will produce; callers size
  /// their per-chunk shard vectors with this.
  [[nodiscard]] static std::size_t NumChunks(std::size_t n, std::size_t grain) noexcept {
    return grain == 0 ? (n != 0) : (n + grain - 1) / grain;
  }

 private:
  struct Job;

  void WorkerLoop(int lane);
  static void RunChunks(Job& job, int lane);

  std::vector<std::thread> workers_;
  // Job hand-off; mutable so ParallelFor can be const (a pool held by a
  // const study object is still usable — synchronization is internal).
  mutable Mutex mutex_;
  mutable CondVar wake_;
  mutable CondVar done_;
  // Non-null while a ParallelFor is in flight.
  mutable Job* job_ GUARDED_BY(mutex_) = nullptr;
  mutable std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
};

}  // namespace lockdown::util
