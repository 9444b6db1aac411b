// Unit tests for scoped-span tracing (src/obs/trace.h): the disabled gate,
// nesting depth and lane ids, the Chrome trace-event JSON shape, and the
// span -> duration-histogram bridge that feeds per-stage breakdowns.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.h"

namespace lockdown::obs {
namespace {

/// Scoped tracing gate; also resets the buffer so tests start clean.
class TracingOn {
 public:
  TracingOn() {
    ResetTrace();
    SetTracingEnabled(true);
  }
  ~TracingOn() {
    SetTracingEnabled(false);
    ResetTrace();
  }
};

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ResetTrace();
  SetTracingEnabled(false);
  SetMetricsEnabled(false);
  {
    ScopedSpan span("test/inert");
    ScopedSpan nested("test/inert_nested");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
  EXPECT_EQ(TraceDroppedCount(), 0u);
}

TEST(ObsTrace, RecordsNestedSpansWithDepth) {
  TracingOn on;
  {
    ScopedSpan outer("test/outer");
    { ScopedSpan inner("test/inner"); }
  }
  EXPECT_EQ(TraceEventCount(), 2u);

  std::ostringstream out;
  WriteChromeTrace(out);
  const std::string doc = out.str();
  // Spans land at scope exit, so the inner one serializes first.
  const auto inner = doc.find("\"test/inner\"");
  const auto outer = doc.find("\"test/outer\"");
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(outer, std::string::npos);
  EXPECT_LT(inner, outer);
  // The inner span nests one level below the outer one.
  EXPECT_NE(doc.find("\"args\": {\"depth\": 1}", inner), std::string::npos);
  EXPECT_NE(doc.find("\"args\": {\"depth\": 0}", outer), std::string::npos);
}

// Spans land at scope exit, so an enclosing span is recorded last; the
// epoch is still its start, and no span gets a negative timestamp.
TEST(ObsTrace, EnclosingSpanStartsAtTimeZero) {
  TracingOn on;
  {
    ScopedSpan enclosing("test/enclosing");
    { ScopedSpan enclosed("test/enclosed"); }
  }
  std::ostringstream out;
  WriteChromeTrace(out);
  const std::string doc = out.str();
  EXPECT_EQ(doc.find("\"ts\": -"), std::string::npos) << doc;
  const auto outer = doc.find("\"test/enclosing\"");
  ASSERT_NE(outer, std::string::npos);
  EXPECT_EQ(doc.find("\"ts\": ", outer), doc.find("\"ts\": 0.000,", outer)) << doc;
}

// OBS_SPAN takes only registered names (src/obs/span_names.h) and records
// them as written.
TEST(ObsTrace, ChromeTraceShape) {
  TracingOn on;
  {
    OBS_SPAN("study/pass");
  }
  std::ostringstream out;
  WriteChromeTrace(out);
  const std::string doc = out.str();
  EXPECT_EQ(doc.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(doc.find("{\"name\": \"study/pass\", \"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"ts\": "), std::string::npos);
  EXPECT_NE(doc.find("\"dur\": "), std::string::npos);
  // Lane metadata so Perfetto names the thread tracks.
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("lane 1"), std::string::npos);
}

TEST(ObsTrace, SpanNamesAreJsonEscaped) {
  TracingOn on;
  { ScopedSpan span("test/\"quoted\"\\name"); }
  std::ostringstream out;
  WriteChromeTrace(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("test/\\\"quoted\\\"\\\\name"), std::string::npos);
}

TEST(ObsTrace, ResetDiscardsBufferedSpans) {
  TracingOn on;
  { ScopedSpan span("test/reset_me"); }
  EXPECT_EQ(TraceEventCount(), 1u);
  ResetTrace();
  EXPECT_EQ(TraceEventCount(), 0u);
}

// Closing a span with metrics enabled observes its duration into a
// kDurationUs histogram of the same name — the bridge that gives
// --metrics-out its per-stage timings.
TEST(ObsTrace, SpanFeedsDurationHistogramWhenMetricsOn) {
  ResetTrace();
  SetTracingEnabled(false);
  SetMetricsEnabled(true);
  { ScopedSpan span("test/span_to_hist"); }
  SetMetricsEnabled(false);
  const MetricsSnapshot snap = SnapshotMetrics();
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "test/span_to_hist") {
      found = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.unit, "us");
    }
  }
  EXPECT_TRUE(found);
  // Metrics-only spans must not reach the trace buffer.
  EXPECT_EQ(TraceEventCount(), 0u);
  ResetMetrics();
}

}  // namespace
}  // namespace lockdown::obs
