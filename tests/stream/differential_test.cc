// The sketched policy against the exact one beyond the thread/format matrix
// of figures_differential_test.cc: under several sketch seeds, on a
// fault-injected tolerant re-ingest, and with the count-min bounds — plus
// the one contract both policies share for query arguments outside the
// study window.
//
// Faults change *which* flows exist, never the two policies' agreement on
// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "core/offline.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "policy_compare.h"
#include "stream/streaming_study.h"
#include "util/fault.h"
#include "world/catalog.h"

namespace lockdown::stream {
namespace {

namespace fs = std::filesystem;

const core::CollectionResult& Collected() {
  static const core::CollectionResult result =
      core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 2020));
  return result;
}

StreamingOptions Unsampled(std::uint64_t sketch_seed = StreamingOptions{}.sketch_seed) {
  StreamingOptions options;
  options.memory_budget_bytes = std::size_t{64} << 20;
  options.sketch_seed = sketch_seed;
  return options;
}

// Count-min: one-sided per domain, and within epsilon * total for all but
// (at most) a small-delta fraction of the vocabulary.
void ExpectDomainBytesBounded(const core::Dataset& ds,
                              const StreamingStudy& sketched) {
  std::unordered_map<core::DomainId, std::uint64_t> exact;
  std::uint64_t total = 0;
  for (const core::Flow& f : ds.flows()) {
    if (f.domain == core::kNoDomain) continue;
    exact[f.domain] += f.total_bytes();
    total += f.total_bytes();
  }
  const auto report = sketched.Accuracy();
  EXPECT_EQ(report.cms_total_bytes, total);
  const auto bound = static_cast<std::uint64_t>(report.cms_epsilon *
                                                static_cast<double>(total));
  std::size_t violations = 0;
  for (const auto& [domain, true_bytes] : exact) {
    const std::uint64_t est = sketched.EstimateDomainBytes(domain);
    ASSERT_GE(est, true_bytes) << "count-min undercounted domain " << domain;
    violations += est > true_bytes + bound;
  }
  const double delta_budget =
      2.0 * report.cms_delta * static_cast<double>(exact.size());
  EXPECT_LE(violations, std::max<std::size_t>(
                            2, static_cast<std::size_t>(delta_budget)));
}

TEST(StreamingDifferential, ConvergesToBatchOnCleanInputs) {
  const auto& collection = Collected();
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy exact(collection.dataset, catalog);
  const StreamingStudy sketched(collection.dataset, catalog, Unsampled());
  testing::ExpectSketchedMatchesExact(collection, exact, sketched);
  ExpectDomainBytesBounded(collection.dataset, sketched);
}

TEST(StreamingDifferential, ConvergesAcrossSketchSeeds) {
  // The convergence contract cannot depend on a lucky hash seed: the exact
  // figures must be bit-identical under any sketch seed, and the estimated
  // ones must stay in bounds.
  const auto& collection = Collected();
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy exact(collection.dataset, catalog);
  for (const std::uint64_t seed : {1ULL, 77ULL, 20200316ULL}) {
    SCOPED_TRACE(::testing::Message() << "sketch seed " << seed);
    const StreamingStudy sketched(collection.dataset, catalog, Unsampled(seed));
    testing::ExpectSketchedMatchesExact(collection, exact, sketched);
  }
}

// The fault-injected path: export the logs, corrupt conn.log with the
// deterministic injector, re-ingest tolerantly, and require the same
// agreement on whatever survived.
TEST(StreamingDifferential, ConvergesUnderFaultInjection) {
  const auto config = core::StudyConfig::Small(45, 909);
  const fs::path dir = fs::temp_directory_path() /
                       ("lockdown_stream_fault_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  core::ExportLogs(config, dir);

  const fs::path conn = dir / core::LogFiles::kConn;
  std::ostringstream buffer;
  buffer << std::ifstream(conn).rdbuf();
  const util::FaultInjector injector({20200316, 0.01});
  const std::string dirty =
      injector.Apply(buffer.str(), util::FaultKind::kMixed);
  std::ofstream(conn, std::ios::trunc) << dirty;

  ingest::IngestOptions tolerant;
  tolerant.mode = ingest::Mode::kTolerant;
  tolerant.max_error_rate = 1.0;
  const auto collection = core::CollectFromLogs(dir, config, tolerant);
  fs::remove_all(dir);

  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy exact(collection.dataset, catalog);
  const StreamingStudy sketched(collection.dataset, catalog, Unsampled());
  testing::ExpectSketchedMatchesExact(collection, exact, sketched);
  ExpectDomainBytesBounded(collection.dataset, sketched);
}

// Months outside 2..5 give empty boxes and DiurnalShape clamps its day range
// to the study window, under both policies — including on a campus whose
// log holds a flow that starts past the window (June 1).
TEST(StreamingDifferential, OutOfWindowArgumentsShareOneContract) {
  const auto& collection = Collected();
  const int num_days = util::StudyCalendar::NumDays();
  const auto flows = collection.dataset.flows();
  ASSERT_TRUE(std::any_of(flows.begin(), flows.end(), [&](const core::Flow& f) {
    return core::Dataset::DayOf(f) >= num_days;
  })) << "the campus no longer has a flow past the study window";
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy exact(collection.dataset, catalog);
  const StreamingStudy sketched(collection.dataset, catalog, Unsampled());

  const auto expect_empty_boxes = [](const core::FigureEngine& study, int month) {
    for (const auto app : {apps::SocialApp::kFacebook, apps::SocialApp::kInstagram,
                           apps::SocialApp::kTikTok}) {
      const auto box = study.SocialDurations(app, month);
      EXPECT_EQ(box.domestic.n + box.international.n, 0u);
    }
    const auto steam = study.SteamUsage(month);
    EXPECT_EQ(steam.dom_bytes.n + steam.intl_bytes.n + steam.dom_conns.n +
                  steam.intl_conns.n,
              0u);
  };
  for (const int month : {1, 6, 12}) {
    SCOPED_TRACE(::testing::Message() << "month " << month);
    expect_empty_boxes(exact, month);
    expect_empty_boxes(sketched, month);
  }

  const auto whole = exact.DiurnalShape(0, num_days - 1);
  for (const auto& [first, last] :
       {std::pair{-10, 500}, std::pair{50, 10}, std::pair{0, 0}}) {
    SCOPED_TRACE(::testing::Message() << "days " << first << ".." << last);
    const auto e = exact.DiurnalShape(first, last);
    const auto s = sketched.DiurnalShape(first, last);
    EXPECT_EQ(e.weekday, s.weekday);
    EXPECT_EQ(e.weekend, s.weekend);
    if (first > last) {
      EXPECT_EQ(e.weekday, decltype(e.weekday){});
      EXPECT_EQ(e.weekend, decltype(e.weekend){});
    }
  }
  const auto clamped = exact.DiurnalShape(-10, 500);
  EXPECT_EQ(clamped.weekday, whole.weekday);
  EXPECT_EQ(clamped.weekend, whole.weekend);
}

}  // namespace
}  // namespace lockdown::stream
