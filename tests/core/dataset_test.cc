#include "core/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace lockdown::core {
namespace {

Flow MakeFlow(DeviceIndex dev, std::uint32_t start, DomainId domain = kNoDomain) {
  Flow f;
  f.device = dev;
  f.start_offset_s = start;
  f.duration_s = 10.0F;
  f.domain = domain;
  f.bytes_down = 100;
  f.bytes_up = 10;
  return f;
}

TEST(Dataset, DomainInterning) {
  Dataset ds;
  const DomainId a = ds.InternDomain("zoom.us");
  const DomainId b = ds.InternDomain("netflix.com");
  const DomainId a2 = ds.InternDomain("zoom.us");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoDomain);
  EXPECT_EQ(ds.DomainName(a), "zoom.us");
  EXPECT_EQ(ds.DomainName(kNoDomain), "");
  EXPECT_EQ(ds.InternDomain(""), kNoDomain);
  EXPECT_EQ(ds.num_domains(), 3u);  // "", zoom.us, netflix.com
}

TEST(Dataset, DeviceRegistration) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{111});
  const DeviceIndex b = ds.AddDevice(privacy::DeviceId{222});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(ds.device(a).id.value, 111u);
  EXPECT_EQ(ds.num_devices(), 2u);
}

TEST(Dataset, FlowsOfDeviceAfterFinalize) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{1});
  const DeviceIndex b = ds.AddDevice(privacy::DeviceId{2});
  const DeviceIndex c = ds.AddDevice(privacy::DeviceId{3});
  ds.AddFlow(MakeFlow(b, 300));
  ds.AddFlow(MakeFlow(a, 200));
  ds.AddFlow(MakeFlow(b, 100));
  ds.AddFlow(MakeFlow(a, 50));
  ds.Finalize();
  const auto a_flows = ds.FlowsOfDevice(a);
  ASSERT_EQ(a_flows.size(), 2u);
  EXPECT_EQ(a_flows[0].start_offset_s, 50u);  // time-sorted per device
  EXPECT_EQ(a_flows[1].start_offset_s, 200u);
  EXPECT_EQ(ds.FlowsOfDevice(b).size(), 2u);
  EXPECT_TRUE(ds.FlowsOfDevice(c).empty());
  EXPECT_EQ(ds.num_flows(), 4u);
}

// Finalize must produce exactly the order of one global stable sort by
// (device, start): ties on both keys keep insertion order. Flows carry their
// insertion rank in bytes_up so any reordering of ties shows.
TEST(Dataset, FinalizeMatchesGlobalStableSortReference) {
  constexpr DeviceIndex kDevices = 9;  // device 4 never gets a flow
  util::Pcg32 rng(2020);
  std::vector<Flow> base;
  for (int i = 0; i < 3000; ++i) {
    DeviceIndex dev = rng.NextBounded(kDevices);
    if (dev == 4) dev = 5;
    base.push_back(MakeFlow(dev, rng.NextBounded(24)));  // many start ties
  }
  const auto by_device_start = [](const Flow& a, const Flow& b) {
    if (a.device != b.device) return a.device < b.device;
    return a.start_offset_s < b.start_offset_s;
  };
  std::vector<std::vector<Flow>> orders = {base, base, base, base};
  std::stable_sort(orders[1].begin(), orders[1].end(), by_device_start);
  std::reverse(orders[2].begin(), orders[2].end());
  std::stable_sort(orders[3].begin(), orders[3].end(),
                   [](const Flow& a, const Flow& b) { return a.device > b.device; });
  for (std::size_t o = 0; o < orders.size(); ++o) {
    std::vector<Flow>& order = orders[o];
    for (std::size_t i = 0; i < order.size(); ++i) order[i].bytes_up = i;
    Dataset ds;
    for (DeviceIndex d = 0; d < kDevices; ++d) ds.AddDevice(privacy::DeviceId{d});
    ds.ReserveFlows(order.size());
    for (const Flow& f : order) ds.AddFlow(f);
    ds.Finalize();

    std::vector<Flow> want = order;
    std::stable_sort(want.begin(), want.end(), by_device_start);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), ds.flows().begin(),
                           ds.flows().end()))
        << "insertion order " << o;
    std::size_t at = 0;
    for (DeviceIndex d = 0; d < kDevices; ++d) {
      const auto slice = ds.FlowsOfDevice(d);
      EXPECT_EQ(slice.data(), ds.flows().data() + at) << "device " << d;
      for (const Flow& f : slice) EXPECT_EQ(f.device, d);
      at += slice.size();
    }
    EXPECT_TRUE(ds.FlowsOfDevice(4).empty());
    EXPECT_EQ(at, ds.num_flows());
  }
}

// The pipeline's one-write path: flows already bucketed by device, each
// bucket in insertion order, end in exactly Finalize's order.
TEST(Dataset, AdoptDeviceBucketsMatchesFinalize) {
  constexpr DeviceIndex kDevices = 9;  // device 4 never gets a flow
  util::Pcg32 rng(2021);
  std::vector<Flow> order;
  for (int i = 0; i < 3000; ++i) {
    DeviceIndex dev = rng.NextBounded(kDevices);
    if (dev == 4) dev = 5;
    order.push_back(MakeFlow(dev, rng.NextBounded(24)));  // many start ties
    order.back().bytes_up = static_cast<std::uint64_t>(i);
  }
  Dataset finalized;
  Dataset adopted;
  for (DeviceIndex d = 0; d < kDevices; ++d) {
    finalized.AddDevice(privacy::DeviceId{d});
    adopted.AddDevice(privacy::DeviceId{d});
  }
  for (const Flow& f : order) finalized.AddFlow(f);
  finalized.Finalize();

  std::vector<std::uint64_t> offsets(kDevices + 1, 0);
  for (const Flow& f : order) ++offsets[f.device + 1];
  for (DeviceIndex d = 1; d <= kDevices; ++d) offsets[d] += offsets[d - 1];
  std::vector<std::uint64_t> next(offsets.begin(), offsets.end() - 1);
  std::vector<Flow> buckets(order.size());
  for (const Flow& f : order) buckets[next[f.device]++] = f;
  adopted.AdoptDeviceBuckets(std::move(buckets), offsets);

  ASSERT_TRUE(adopted.finalized());
  EXPECT_TRUE(std::equal(finalized.flows().begin(), finalized.flows().end(),
                         adopted.flows().begin(), adopted.flows().end()));
  EXPECT_TRUE(std::equal(finalized.device_offsets().begin(), finalized.device_offsets().end(),
                         adopted.device_offsets().begin(), adopted.device_offsets().end()));

  Dataset bad;
  bad.AddDevice(privacy::DeviceId{1});
  EXPECT_THROW(bad.AdoptDeviceBuckets(std::vector<Flow>(3), {0, 2}), std::invalid_argument);
}

TEST(Dataset, FlowsOfDeviceThrowsBeforeFinalize) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{1});
  EXPECT_THROW((void)ds.FlowsOfDevice(a), std::logic_error);
}

TEST(Dataset, FlowsOfDeviceBoundsChecked) {
  Dataset ds;
  ds.Finalize();
  EXPECT_THROW((void)ds.FlowsOfDevice(0), std::out_of_range);
}

TEST(Dataset, TimeHelpers) {
  Flow f;
  f.start_offset_s = 3 * util::kSecondsPerDay + 7 * util::kSecondsPerHour;
  EXPECT_EQ(Dataset::DayOf(f), 3);
  EXPECT_EQ(Dataset::StartOf(f),
            util::StudyCalendar::StartTs() + f.start_offset_s);
}

TEST(Dataset, ObservationsMutable) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{1});
  ds.device_mutable(a).observations.oui = 42;
  ds.device_mutable(a).observations.AddUserAgent("agent");
  ds.device_mutable(a).observations.AddUserAgent("agent");  // dedup
  EXPECT_EQ(ds.device(a).observations.oui, 42u);
  EXPECT_EQ(ds.device(a).observations.user_agents.size(), 1u);
}

}  // namespace
}  // namespace lockdown::core
