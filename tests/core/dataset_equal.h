// Exact equality of two collection results — the flow array, the interned
// domains, the devices, the CSR index, and the collection stats — shared by
// the parallel-equivalence, snapshot and codec suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>

#include "core/pipeline.h"

namespace lockdown::core::testing {

inline void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_flows(), b.num_flows());
  ASSERT_EQ(a.num_devices(), b.num_devices());
  ASSERT_EQ(a.num_domains(), b.num_domains());
  const auto fa = a.flows();
  const auto fb = b.flows();
  const auto diff = std::ranges::mismatch(fa, fb).in1;
  ASSERT_TRUE(diff == fa.end()) << "flow " << (diff - fa.begin()) << " differs";
  for (DomainId d = 0; d < a.num_domains(); ++d) {
    ASSERT_EQ(a.DomainName(d), b.DomainName(d)) << "domain " << d;
  }
  for (DeviceIndex i = 0; i < a.num_devices(); ++i) {
    ASSERT_TRUE(a.device(i) == b.device(i)) << "device " << i;
  }
  ASSERT_TRUE(std::ranges::equal(a.device_offsets(), b.device_offsets()));
}

inline void ExpectSameCollection(const CollectionResult& a, const CollectionResult& b) {
  EXPECT_TRUE(a.stats == b.stats);
  ExpectSameDataset(a.dataset, b.dataset);
}

}  // namespace lockdown::core::testing
