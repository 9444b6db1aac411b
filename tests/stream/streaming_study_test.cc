// StreamingStudy engine invariants: bit-identical output at any thread
// count, sketch state held under the configured budget on a dataset several
// times larger than it, and a truthful accuracy report.
#include "stream/streaming_study.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "world/catalog.h"

#include "../core/figure_render.h"
#include "../core/sorted_flows.h"

namespace lockdown::stream {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

const core::CollectionResult& Collected() {
  static const core::CollectionResult result =
      core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 2020));
  return result;
}

StreamingOptions WithThreads(int threads) {
  StreamingOptions options;
  options.threads = threads;
  return options;
}

TEST(StreamingStudy, BitIdenticalAcrossThreadCounts) {
  // Every output, estimates included: the sketches must hold identical
  // state regardless of thread count.
  const auto& collection = Collected();
  const auto& catalog = world::ServiceCatalog::Default();
  const StreamingStudy serial(collection.dataset, catalog, WithThreads(1));
  const std::string figures = core::testing::RenderFigures(collection, serial);
  for (const int threads : {2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const StreamingStudy par(collection.dataset, catalog, WithThreads(threads));
    EXPECT_EQ(core::testing::RenderFigures(collection, par), figures);
    for (core::DomainId d = 0; d < collection.dataset.num_domains(); ++d) {
      ASSERT_EQ(serial.EstimateDomainBytes(d), par.EstimateDomainBytes(d))
          << "domain " << d;
    }
  }
}

TEST(StreamingStudy, BudgetBelowFloorThrows) {
  const auto& collection = Collected();
  StreamingOptions options;
  options.memory_budget_bytes = kMiB;  // below the ~1.5 MiB floor
  EXPECT_THROW(
      StreamingStudy(collection.dataset, world::ServiceCatalog::Default(),
                     options),
      std::invalid_argument);
}

TEST(StreamingStudy, AccuracyReportIsTruthful) {
  const auto& collection = Collected();
  const StreamingStudy study(collection.dataset,
                             world::ServiceCatalog::Default(), {});
  const auto report = study.Accuracy();
  EXPECT_EQ(report.hll_precision, study.plan().hll_precision);
  EXPECT_DOUBLE_EQ(report.hll_relative_standard_error,
                   study.plan().HllRelativeStandardError());
  EXPECT_DOUBLE_EQ(report.cms_epsilon, study.plan().CmsEpsilon());
  EXPECT_GT(report.cms_total_bytes, 0u);
  EXPECT_EQ(report.reservoir_capacity, study.plan().reservoir_capacity);
  EXPECT_EQ(report.state_bytes, study.TrackedStateBytes());
  EXPECT_EQ(report.budget_bytes, study.plan().budget_bytes);
  EXPECT_LE(report.state_bytes, report.budget_bytes);
}

// A synthetic dataset several times the budget: 600 devices x 350 flows
// (~8.4 MB of flow records) against a 2 MiB budget. The engine's tracked
// sketch state must stay under the budget — the whole point of streaming.
core::Dataset SyntheticLargeDataset() {
  core::Dataset ds;
  std::vector<core::DomainId> domains;
  for (int i = 0; i < 200; ++i) {
    domains.push_back(ds.InternDomain("svc" + std::to_string(i) + ".example"));
  }
  std::vector<core::Flow> flows;
  constexpr int kDevices = 600;
  constexpr int kFlowsPerDevice = 350;
  for (int d = 0; d < kDevices; ++d) {
    const core::DeviceIndex dev =
        ds.AddDevice(privacy::DeviceId{static_cast<std::uint64_t>(d) + 1});
    for (int i = 0; i < kFlowsPerDevice; ++i) {
      core::Flow f;
      const int day = (d + i * 7) % util::StudyCalendar::NumDays();
      f.start_offset_s = static_cast<std::uint32_t>(day) * 86400U +
                         static_cast<std::uint32_t>((i * 613) % 86000);
      f.duration_s = 30.0F + static_cast<float>(i % 900);
      f.device = dev;
      f.domain = domains[static_cast<std::size_t>((d + i) % 200)];
      f.server_ip = net::Ipv4Address{0x0A000000U + static_cast<std::uint32_t>(i)};
      f.bytes_up = 1000 + static_cast<std::uint64_t>(i) * 17;
      f.bytes_down = 50000 + static_cast<std::uint64_t>(d) * 31;
      flows.push_back(f);
    }
  }
  core::testing::SetFlowsSorted(ds, std::move(flows));
  return ds;
}

TEST(StreamingStudy, StateStaysUnderBudgetOnDatasetFourTimesLarger) {
  const core::Dataset ds = SyntheticLargeDataset();
  constexpr std::size_t kBudget = 2 * kMiB;
  ASSERT_GE(ds.num_flows() * sizeof(core::Flow), 4 * kBudget)
      << "test dataset no longer exercises the memory bound";
  StreamingOptions options;
  options.memory_budget_bytes = kBudget;
  const StreamingStudy study(ds, world::ServiceCatalog::Default(), options);
  const auto report = study.Accuracy();
  EXPECT_LE(study.TrackedStateBytes(), kBudget);
  EXPECT_LE(report.state_bytes, report.budget_bytes);
  // The population (600 devices/day) exceeds the floor reservoir capacity,
  // so the engine must be honest about having sampled.
  EXPECT_FALSE(report.reservoirs_exact);
  // Figures still answer: estimates exist for every day with traffic.
  const auto rows = study.BytesPerDevicePerDay();
  std::size_t days_with_traffic = 0;
  for (const auto& row : rows) {
    for (double m : row.mean) days_with_traffic += m > 0.0;
  }
  EXPECT_GT(days_with_traffic, 0u);
}

// The count-min sketch a per-run feed gives: one add per adjacent run of
// same-domain flows, device by device in index order.
sketch::CountMinSketch PerRunReference(const core::Dataset& ds,
                                       const StreamingStudy& study,
                                       const StreamingOptions& options) {
  // 8000: the count-min stream id the sketched policy hashes under.
  sketch::CountMinSketch cms(study.plan().cms_width, study.plan().cms_depth,
                             options.sketch_seed, 8000);
  for (core::DeviceIndex dev = 0; dev < ds.num_devices(); ++dev) {
    core::DomainId run_domain = core::kNoDomain;
    std::uint64_t run_bytes = 0;
    for (const core::Flow& f : ds.FlowsOfDevice(dev)) {
      if (f.domain == core::kNoDomain) continue;
      if (f.domain != run_domain && run_domain != core::kNoDomain) {
        cms.Add(run_domain, run_bytes);
        run_bytes = 0;
      }
      run_domain = f.domain;
      run_bytes += f.total_bytes();
    }
    if (run_domain != core::kNoDomain) cms.Add(run_domain, run_bytes);
  }
  return cms;
}

TEST(StreamingStudy, CountMinFeedMatchesPerRunReference) {
  // Tallying a device's bytes per domain before the add regroups integer
  // sums; every cell, hence every estimate and the total, must not move.
  const core::Dataset synthetic = SyntheticLargeDataset();
  for (const core::Dataset* ds : {&Collected().dataset, &synthetic}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << ds->num_devices() << " devices, "
                                      << threads << " threads");
      const StreamingOptions options = WithThreads(threads);
      const StreamingStudy study(*ds, world::ServiceCatalog::Default(), options);
      const sketch::CountMinSketch reference = PerRunReference(*ds, study, options);
      EXPECT_EQ(study.Accuracy().cms_total_bytes, reference.total());
      for (core::DomainId d = 0; d < ds->num_domains(); ++d) {
        ASSERT_EQ(study.EstimateDomainBytes(d), reference.Estimate(d))
            << "domain " << d;
      }
    }
  }
}

}  // namespace
}  // namespace lockdown::stream
