// Scoped-span tracing with Chrome trace-event JSON output.
//
// Usage at an instrumentation site:
//
//   void MeasurementPipeline::Process(...) {
//     OBS_SPAN("pipeline/process");
//     ...
//   }
//
// The name must be a string literal registered in kRegisteredSpanNames
// (src/obs/span_names.h): OBS_SPAN passes it through the consteval SpanName,
// so an unregistered name does not compile. Spans with a runtime name (the
// per-file "ingest/<name>" spans) construct ScopedSpan directly.
//
// A span records thread id, start time, duration, and nesting depth. Spans
// are inert (two relaxed atomic loads, no clock read) unless tracing or
// metrics are enabled. When metrics are enabled, closing a span also
// observes its duration into a kDurationUs histogram named after the span —
// that is how per-stage breakdowns appear in --metrics-out JSON without a
// second layer of timers.
//
// WriteChromeTrace emits {"traceEvents": [...]} with complete ("ph":"X")
// events, loadable in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/span_names.h"

namespace lockdown::obs {

/// Global tracing gate; relaxed-atomic, safe from any thread.
[[nodiscard]] bool TracingEnabled() noexcept;
void SetTracingEnabled(bool on) noexcept;

/// `name`, checked against kRegisteredSpanNames at compile time.
consteval std::string_view SpanName(const char* name) {
  for (const std::string_view registered : kRegisteredSpanNames) {
    if (registered == name) return name;
  }
  throw "span name missing from kRegisteredSpanNames (src/obs/span_names.h)";
}

/// RAII span. Prefer the OBS_SPAN macro; construct directly only for
/// dynamic names (e.g. "ingest/" + filename).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string name_;
  std::int64_t start_ns_ = 0;
  bool active_ = false;
};

/// Number of spans recorded in the trace buffer so far (for tests).
[[nodiscard]] std::size_t TraceEventCount() noexcept;

/// Number of spans dropped because the trace buffer hit its cap.
[[nodiscard]] std::uint64_t TraceDroppedCount() noexcept;

/// Serializes the buffered spans as Chrome trace-event JSON. Timestamps are
/// microseconds relative to the first enable, so traces start near t=0.
void WriteChromeTrace(std::ostream& out);

/// Discards all buffered spans (for tests and repeated runs).
void ResetTrace() noexcept;

#define OBS_CONCAT_INNER(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope. `name` must be a
/// registered literal; see SpanName. The literal itself is passed on, not
/// SpanName's result, so the check leaves the generated code unchanged.
#define OBS_SPAN(name)                                         \
  ::lockdown::obs::ScopedSpan OBS_CONCAT(obs_span_, __LINE__)( \
      (::lockdown::obs::SpanName(name), name))

}  // namespace lockdown::obs
