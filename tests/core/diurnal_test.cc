// DiurnalShape against a civil-calendar oracle: the study's scan reads
// weekend-ness from a per-day table and the hour of day from remainder
// arithmetic; this oracle does the full civil conversion (util::HourOf,
// WeekdayOf(DateAt(day))) with the same adds in the same order, so the two
// must agree to the bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/study.h"
#include "util/thread_pool.h"
#include "world/catalog.h"

namespace lockdown::core {
namespace {

using util::StudyCalendar;

const CollectionResult& Collected() {
  static const CollectionResult result =
      MeasurementPipeline::Collect(StudyConfig::Small(60, 2020));
  return result;
}

// Clamps the range like DiurnalShape, sums each kFlowGrain chunk of the flow
// array into its own shard, folds the shards in chunk order and normalizes.
FigureEngine::DiurnalShapeResult OracleDiurnalShape(const Dataset& dataset,
                                                    int first_day, int last_day) {
  const int lo = std::max(first_day, 0);
  const int hi = std::min(last_day, StudyCalendar::NumDays() - 1);
  const auto flows = dataset.flows();
  std::vector<FigureEngine::DiurnalShapeResult> shards(
      util::ThreadPool::NumChunks(flows.size(), kFlowGrain));
  for (std::size_t i = 0; i < flows.size() && lo <= hi; ++i) {
    const Flow& f = flows[i];
    const int day = Dataset::DayOf(f);
    if (day < lo || day > hi) continue;
    auto& shard = shards[i / kFlowGrain];
    auto& profile = util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)))
                        ? shard.weekend
                        : shard.weekday;
    StudyContext::SpreadOverHours(f, [&profile](util::Timestamp t, double bytes) {
      profile[static_cast<std::size_t>(util::HourOf(t))] += bytes;
    });
  }
  FigureEngine::DiurnalShapeResult result;
  for (const auto& shard : shards) {
    for (std::size_t h = 0; h < 24; ++h) {
      result.weekday[h] += shard.weekday[h];
      result.weekend[h] += shard.weekend[h];
    }
  }
  for (auto* profile : {&result.weekday, &result.weekend}) {
    double sum = 0.0;
    for (const double v : *profile) sum += v;
    if (sum > 0.0) {
      for (double& v : *profile) v /= sum;
    }
  }
  return result;
}

TEST(DiurnalShape, BitIdenticalToCivilCalendarOracle) {
  const Dataset& dataset = Collected().dataset;
  ASSERT_GT(dataset.num_flows(), kFlowGrain) << "the scan must span chunks";
  constexpr std::pair<int, int> kRanges[] = {
      {0, 120}, {10, 40}, {5, 5}, {120, 120}, {-10, 500}};
  for (const int threads : {1, 4}) {
    const LockdownStudy study(dataset, world::ServiceCatalog::Default(), threads);
    for (const auto& [lo, hi] : kRanges) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << ", days " << lo << ".." << hi);
      const auto got = study.DiurnalShape(lo, hi);
      const auto want = OracleDiurnalShape(dataset, lo, hi);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0);
    }
  }
}

}  // namespace
}  // namespace lockdown::core
