// Batch study vs streaming study head-to-head: wall time to answer every
// figure, flow throughput, the streaming engine's tracked sketch state
// against its budget, and the process peak RSS. With LOCKDOWN_BENCH_JSON
// set, the numbers land in a machine-readable document.
//
// LOCKDOWN_MEMORY_BUDGET (bytes, default 32 MiB) sizes the streaming engine.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "stream/streaming_study.h"
#include "util/memstats.h"
#include "util/table.h"

namespace {

using namespace lockdown;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Touch every figure so neither mode gets away with lazy evaluation.
template <typename Study>
double DrainFigures(const Study& study) {
  double sink = 0.0;
  for (const auto& row : study.ActiveDevicesPerDay()) sink += row.total;
  for (const auto& row : study.BytesPerDevicePerDay()) sink += row.mean[0];
  sink += study.HourOfWeekVolume().normalization;
  for (const auto& row : study.MedianBytesExcludingZoom()) {
    sink += row.intl_mobile_desktop;
  }
  sink += study.ZoomDailyBytes().at(0);
  sink += study.SocialDurations(apps::SocialApp::kFacebook, 4).domestic.median;
  sink += study.SteamUsage(4).dom_bytes.median;
  sink += study.SwitchGameplayDaily().at(0);
  for (const auto& row : study.CategoryVolumes()) sink += row.streaming;
  sink += study.DiurnalShape(0, 28).weekday[12];
  sink += study.HeadlineStats().traffic_increase;
  return sink;
}

}  // namespace

int main() {
  bench::BenchName("stream_vs_batch");
  const core::CollectionResult& collection = bench::SharedCollection();
  const auto num_flows = static_cast<double>(collection.dataset.num_flows());
  const int threads = bench::DefaultConfig().threads;

  const auto t_batch = std::chrono::steady_clock::now();
  const core::LockdownStudy batch(collection.dataset,
                                  world::ServiceCatalog::Default(), threads);
  double sink = DrainFigures(batch);
  const double batch_ms = MsSince(t_batch);

  stream::StreamingOptions options;
  options.threads = threads;
  options.memory_budget_bytes = bench::internal::EnvIntOr<std::size_t>(
      "LOCKDOWN_MEMORY_BUDGET", options.memory_budget_bytes, std::size_t{2} << 20,
      std::size_t{1} << 40);
  const auto t_stream = std::chrono::steady_clock::now();
  const stream::StreamingStudy streaming(collection.dataset,
                                         world::ServiceCatalog::Default(),
                                         options);
  sink += DrainFigures(streaming);
  const double stream_ms = MsSince(t_stream);

  const auto report = streaming.Accuracy();
  const double peak_rss = static_cast<double>(util::PeakRssBytes());

  util::TablePrinter table({"mode", "time", "throughput", "analysis state"});
  table.AddRow({"batch", util::FormatDouble(batch_ms, 1) + " ms",
                bench::Mb(num_flows / (batch_ms / 1e3) * 40) + " MB/s",
                "unbounded (full dataset resident)"});
  table.AddRow({"streaming", util::FormatDouble(stream_ms, 1) + " ms",
                bench::Mb(num_flows / (stream_ms / 1e3) * 40) + " MB/s",
                util::FormatByteSize(report.state_bytes) + " of " +
                    util::FormatByteSize(report.budget_bytes) + " budget"});
  table.Print(std::cout);
  std::printf("peak RSS %s (both modes, whole process)  [sink %.3g]\n",
              util::FormatByteSize(static_cast<std::size_t>(peak_rss)).c_str(),
              sink);

  bench::Metric("flows", num_flows, "flows");
  bench::Metric("batch_study_ms", batch_ms, "ms");
  bench::Metric("batch_flows_per_s", num_flows / (batch_ms / 1e3), "flows/s");
  bench::Metric("streaming_study_ms", stream_ms, "ms");
  bench::Metric("streaming_flows_per_s", num_flows / (stream_ms / 1e3),
                "flows/s");
  bench::Metric("streaming_state_bytes",
                static_cast<double>(report.state_bytes), "bytes");
  bench::Metric("streaming_budget_bytes",
                static_cast<double>(report.budget_bytes), "bytes");
  bench::Metric("peak_rss_bytes", peak_rss, "bytes");
  return 0;
}
