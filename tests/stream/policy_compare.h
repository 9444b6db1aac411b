// The sketched policy against the exact one over the same dataset, with the
// accuracy taxonomy stream/streaming_study.h states:
//
//   exact       every figure the sketched policy does not estimate — the
//               canonical %.17g rendering without Figure 1 and the headline
//               device/site counts is byte-identical, provided no reservoir
//               evicted (report.reservoirs_exact)
//   bounded     HLL cardinalities (Figure 1, headline peak/trough, distinct
//               sites) within 4 standard errors of the exact counts
#pragma once

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/study.h"
#include "stream/streaming_study.h"

#include "../core/figure_render.h"

namespace lockdown::stream::testing {

inline void ExpectSketchedMatchesExact(const core::CollectionResult& collection,
                                       const core::LockdownStudy& exact,
                                       const StreamingStudy& sketched) {
  const auto report = sketched.Accuracy();
  ASSERT_TRUE(report.reservoirs_exact)
      << "population outgrew the reservoirs; raise the test budget";
  ASSERT_LE(report.state_bytes, report.budget_bytes);
  EXPECT_EQ(core::testing::RenderFigures(collection, sketched, false),
            core::testing::RenderFigures(collection, exact, false));

  const double rse = report.hll_relative_standard_error;
  const auto f1e = exact.ActiveDevicesPerDay();
  const auto f1s = sketched.ActiveDevicesPerDay();
  ASSERT_EQ(f1e.size(), f1s.size());
  for (std::size_t i = 0; i < f1e.size(); ++i) {
    for (std::size_t c = 0; c < f1e[i].by_class.size(); ++c) {
      const double truth = f1e[i].by_class[c];
      EXPECT_NEAR(f1s[i].by_class[c], truth, 4.0 * rse * truth + 1.0)
          << "fig1 day " << i << " class " << c;
    }
    EXPECT_NEAR(f1s[i].total, static_cast<double>(f1e[i].total),
                4.0 * rse * f1e[i].total + 2.0)
        << "fig1 day " << i;
  }
  const auto he = exact.HeadlineStats();
  const auto hs = sketched.HeadlineStats();
  EXPECT_NEAR(hs.peak_active_devices, he.peak_active_devices,
              4.0 * rse * he.peak_active_devices + 4.0);
  EXPECT_NEAR(hs.trough_active_devices, he.trough_active_devices,
              4.0 * rse * he.trough_active_devices + 4.0);
  EXPECT_NEAR(hs.distinct_sites_increase, he.distinct_sites_increase, 0.1);
}

}  // namespace lockdown::stream::testing
