#include "util/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "obs/obs.h"

namespace lockdown::util {
namespace {

// Per-lane accounting is capped; lanes past the cap still run chunks, they
// just skip utilization bookkeeping.
constexpr int kMaxObsLanes = 64;

std::int64_t ObsNowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Folds a finished job's lane timings into the registry: per-lane busy time,
// total chunk count, and the busy-time spread between the most and least
// loaded lanes (the "one slow chunk serializes the tail" signal).
void RecordJobStats(const std::array<std::uint64_t, kMaxObsLanes>& busy_ns,
                    const std::array<std::uint64_t, kMaxObsLanes>& lane_chunks,
                    std::size_t num_chunks) {
  static obs::Counter& jobs =
      obs::GetCounter("thread_pool/parallel_for", "calls");
  static obs::Counter& chunks = obs::GetCounter("thread_pool/chunks", "chunks");
  static obs::Histogram& lane_busy = obs::GetHistogram(
      "thread_pool/lane_busy_us", obs::Buckets::kDurationUs, "us");
  static obs::Histogram& imbalance = obs::GetHistogram(
      "thread_pool/imbalance_pct", obs::Buckets::kPercent, "%");
  jobs.Increment();
  chunks.Add(num_chunks);
  std::uint64_t max_busy = 0;
  std::uint64_t min_busy = UINT64_MAX;
  bool any = false;
  for (int lane = 0; lane < kMaxObsLanes; ++lane) {
    if (lane_chunks[lane] == 0) continue;
    any = true;
    lane_busy.Observe(busy_ns[lane] / 1000);
    if (busy_ns[lane] > max_busy) max_busy = busy_ns[lane];
    if (busy_ns[lane] < min_busy) min_busy = busy_ns[lane];
  }
  if (any && max_busy > 0) {
    imbalance.Observe(100 * (max_busy - min_busy) / max_busy);
  }
}

}  // namespace

int ResolveThreadCount(int requested) noexcept {
  if (requested > 0) return std::min(requested, kMaxThreads);
  if (const char* env = std::getenv("LOCKDOWN_THREADS");
      env != nullptr && *env != '\0') {
    int value = 0;
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, value);
    if (ec == std::errc() && ptr == end && value >= 0) {
      return std::clamp(value, 1, kMaxThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, kMaxThreads);
}

struct ThreadPool::Job {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 0;
  std::size_t num_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  int attached = 0;  // workers currently holding this job; guarded by the
                     // owning pool's mutex_ (not expressible in GUARDED_BY:
                     // Job is not a member of ThreadPool)
  Mutex error_mutex;
  std::exception_ptr error GUARDED_BY(error_mutex);
  // Lane accounting, populated only when obs_on. Each lane writes its own
  // slot; the caller reads after the done_ handshake, so no atomics needed.
  bool obs_on = false;
  std::array<std::uint64_t, kMaxObsLanes> busy_ns{};
  std::array<std::uint64_t, kMaxObsLanes> lane_chunks{};
};

ThreadPool::ThreadPool(int threads) {
  const int workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    // Lane 0 is the caller; workers take 1..N.
    workers_.emplace_back([this, lane = i + 1] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(Job& job, int lane) {
  static obs::Histogram& chunk_us = obs::GetHistogram(
      "thread_pool/chunk_us", obs::Buckets::kDurationUs, "us");
  for (;;) {
    const std::size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) return;
    const std::size_t begin = chunk * job.grain;
    const std::size_t end = std::min(begin + job.grain, job.n);
    const std::int64_t t0 = job.obs_on ? ObsNowNs() : 0;
    try {
      (*job.fn)(chunk, begin, end);
    } catch (...) {
      const MutexLock lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.obs_on) {
      const auto elapsed = static_cast<std::uint64_t>(ObsNowNs() - t0);
      chunk_us.Observe(elapsed / 1000);
      if (lane < kMaxObsLanes) {
        job.busy_ns[static_cast<std::size_t>(lane)] += elapsed;
        job.lane_chunks[static_cast<std::size_t>(lane)] += 1;
      }
    }
    job.finished.fetch_add(1, std::memory_order_release);
  }
}

void ThreadPool::WorkerLoop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      const MutexLock lock(mutex_);
      wake_.Wait(mutex_,
                 [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      job = job_;
      ++job->attached;
    }
    RunChunks(*job, lane);
    {
      const MutexLock lock(mutex_);
      --job->attached;
    }
    // The caller sleeps until every chunk is finished AND every attached
    // worker has let go of the job (it lives on the caller's stack).
    done_.NotifyOne();
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) const {
  if (n == 0) return;
  if (grain == 0 || grain > n) grain = n;
  Job job;
  job.fn = &fn;
  job.n = n;
  job.grain = grain;
  job.num_chunks = NumChunks(n, grain);
  job.obs_on = obs::MetricsEnabled();

  if (workers_.empty() || job.num_chunks == 1) {
    // Serial fallback: the identical chunks, in chunk order. Exceptions
    // propagate immediately (later chunks do not run), unlike the parallel
    // path — timing is inlined here so that contract stays untouched.
    static obs::Histogram& chunk_us = obs::GetHistogram(
        "thread_pool/chunk_us", obs::Buckets::kDurationUs, "us");
    for (std::size_t c = 0; c < job.num_chunks; ++c) {
      const std::size_t begin = c * grain;
      const std::int64_t t0 = job.obs_on ? ObsNowNs() : 0;
      (*job.fn)(c, begin, std::min(begin + grain, n));
      if (job.obs_on) {
        const auto elapsed = static_cast<std::uint64_t>(ObsNowNs() - t0);
        chunk_us.Observe(elapsed / 1000);
        job.busy_ns[0] += elapsed;
        job.lane_chunks[0] += 1;
      }
    }
    if (job.obs_on) {
      RecordJobStats(job.busy_ns, job.lane_chunks, job.num_chunks);
    }
    return;
  }

  {
    const MutexLock lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  wake_.NotifyAll();
  RunChunks(job, /*lane=*/0);  // the caller is a lane too
  {
    const MutexLock lock(mutex_);
    done_.Wait(mutex_, [&] {
      return job.attached == 0 &&
             job.finished.load(std::memory_order_acquire) == job.num_chunks;
    });
    job_ = nullptr;
  }
  if (job.obs_on) {
    RecordJobStats(job.busy_ns, job.lane_chunks, job.num_chunks);
  }
  // All workers detached: the caller owns job.error again, no lock needed —
  // but take it anyway so the annotated contract has no analysis hole.
  std::exception_ptr error;
  {
    const MutexLock lock(job.error_mutex);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace lockdown::util
