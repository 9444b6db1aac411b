#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lockdown::obs {
namespace {

// Hard cap on buffered spans; beyond it spans are counted as dropped rather
// than growing without bound (a 1M-persona run emits a lot of file spans).
constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 20;

std::atomic<bool> g_tracing_enabled{false};

struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

struct TraceBuffer {
  util::Mutex mu;
  std::vector<TraceEvent> events GUARDED_BY(mu);
  std::uint64_t dropped GUARDED_BY(mu) = 0;
  std::uint32_t next_tid GUARDED_BY(mu) = 1;
};

TraceBuffer& Buffer() {
  static TraceBuffer* buffer = new TraceBuffer();  // outlives atexit writers
  return *buffer;
}

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Small dense per-thread ids so Perfetto tracks read as "lane 1..N" rather
// than opaque pthread handles.
std::uint32_t LocalTid() {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) {
    TraceBuffer& buf = Buffer();
    const util::MutexLock lock(buf.mu);
    tid = buf.next_tid++;
  }
  return tid;
}

// Current nesting depth of active spans on this thread.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

bool TracingEnabled() noexcept {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool on) noexcept {
  g_tracing_enabled.store(on, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(std::string_view name) {
  if (!TracingEnabled() && !MetricsEnabled()) return;
  active_ = true;
  name_ = name;
  ++t_span_depth;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::int64_t end_ns = NowNs();
  const std::uint32_t depth = --t_span_depth;
  if (MetricsEnabled()) {
    // Registration takes the registry mutex, but only for names not seen
    // before on this process; steady-state is a shard fetch_add.
    GetHistogram(name_, Buckets::kDurationUs, "us")
        .Observe(static_cast<std::uint64_t>((end_ns - start_ns_) / 1000));
  }
  if (!TracingEnabled()) return;
  TraceBuffer& buf = Buffer();
  const std::uint32_t tid = LocalTid();
  const util::MutexLock lock(buf.mu);
  if (buf.events.size() >= kMaxTraceEvents) {
    ++buf.dropped;
    return;
  }
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.tid = tid;
  ev.depth = depth;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns - start_ns_;
  buf.events.push_back(std::move(ev));
}

std::size_t TraceEventCount() noexcept {
  TraceBuffer& buf = Buffer();
  const util::MutexLock lock(buf.mu);
  return buf.events.size();
}

std::uint64_t TraceDroppedCount() noexcept {
  TraceBuffer& buf = Buffer();
  const util::MutexLock lock(buf.mu);
  return buf.dropped;
}

void WriteChromeTrace(std::ostream& out) {
  TraceBuffer& buf = Buffer();
  const util::MutexLock lock(buf.mu);
  // Spans land at scope exit, so an enclosing span is recorded after the
  // spans it encloses; the epoch is the earliest start, keeping every ts >= 0.
  const auto earliest = std::min_element(
      buf.events.begin(), buf.events.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.start_ns < b.start_ns; });
  const std::int64_t epoch_ns =
      earliest == buf.events.end() ? 0 : earliest->start_ns;
  std::string doc;
  doc += "{\"traceEvents\": [\n";
  std::uint32_t max_tid = 0;
  bool first = true;
  for (const TraceEvent& ev : buf.events) {
    if (ev.tid > max_tid) max_tid = ev.tid;
    if (!first) doc += ",\n";
    first = false;
    doc += "  {\"name\": \"" + JsonEscape(ev.name) + "\", ";
    char buf_num[128];
    std::snprintf(buf_num, sizeof buf_num,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"depth\": %u}}",
                  ev.tid,
                  static_cast<double>(ev.start_ns - epoch_ns) / 1000.0,
                  static_cast<double>(ev.dur_ns) / 1000.0, ev.depth);
    doc += buf_num;
  }
  // Thread-name metadata so Perfetto labels the lanes.
  for (std::uint32_t tid = 1; tid <= max_tid; ++tid) {
    if (!first) doc += ",\n";
    first = false;
    char buf_meta[160];
    std::snprintf(buf_meta, sizeof buf_meta,
                  "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"lane %u\"}}",
                  tid, tid);
    doc += buf_meta;
  }
  doc += "\n]}\n";
  out << doc;
}

void ResetTrace() noexcept {
  TraceBuffer& buf = Buffer();
  const util::MutexLock lock(buf.mu);
  buf.events.clear();
  buf.dropped = 0;
}

}  // namespace lockdown::obs
