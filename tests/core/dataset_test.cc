#include "core/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sorted_flows.h"

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
  testing::SetFlowsSorted(ds, {MakeFlow(b, 300), MakeFlow(a, 200),
                               MakeFlow(b, 100), MakeFlow(a, 50)});
  const auto a_flows = ds.FlowsOfDevice(a);
  ASSERT_EQ(a_flows.size(), 2u);
  EXPECT_EQ(a_flows[0].start_offset_s, 50u);  // time-sorted per device
  EXPECT_EQ(a_flows[1].start_offset_s, 200u);
  EXPECT_EQ(ds.FlowsOfDevice(b).size(), 2u);
  EXPECT_TRUE(ds.FlowsOfDevice(c).empty());
  EXPECT_EQ(ds.num_flows(), 4u);
}

// SetFlows and BorrowFlows run the same scan: it rejects every ill-formed
// array, leaving the dataset as it was, and derives the CSR index of a
// well-formed one, zero-flow devices included.
TEST(Dataset, SetFlowsChecksAndDerivesTheIndex) {
  const auto give = [](Dataset& ds, const std::vector<Flow>& flows, bool borrow) {
    if (borrow) {
      auto owner = std::make_shared<const std::vector<Flow>>(flows);
      const std::span<const Flow> view(*owner);
      ds.BorrowFlows(view, std::move(owner));
    } else {
      ds.SetFlows(flows);
    }
  };
  const auto offsets = [](const Dataset& ds) {
    return std::vector<std::uint64_t>(ds.device_offsets().begin(),
                                      ds.device_offsets().end());
  };
  for (const bool borrow : {false, true}) {
    SCOPED_TRACE(borrow ? "borrowed" : "owned");
    // Devices 0, 2 and 4 of five have no flows: first, middle and last.
    Dataset ds;
    for (DeviceIndex d = 0; d < 5; ++d) ds.AddDevice(privacy::DeviceId{d + 1});
    const DomainId zoom = ds.InternDomain("zoom.us");
    EXPECT_EQ(offsets(ds), (std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0}));
    const std::vector<Flow> good = {MakeFlow(1, 10), MakeFlow(1, 10, zoom),
                                    MakeFlow(1, 40), MakeFlow(3, 5),
                                    MakeFlow(3, 5)};
    give(ds, good, borrow);
    EXPECT_EQ(offsets(ds), (std::vector<std::uint64_t>{0, 0, 3, 3, 5, 5}));
    EXPECT_TRUE(std::ranges::equal(ds.flows(), good));
    EXPECT_EQ(ds.FlowsOfDevice(3).data(), ds.flows().data() + 3);
    for (const DeviceIndex d : {0u, 2u, 4u}) EXPECT_TRUE(ds.FlowsOfDevice(d).empty());

    // Each rejection class, on an otherwise well-formed array.
    const std::vector<std::vector<Flow>> bad = {
        {MakeFlow(1, 10), MakeFlow(5, 20)},        // device out of range
        {MakeFlow(1, 10, 2)},                      // domain out of range
        {MakeFlow(3, 10), MakeFlow(1, 20)},        // devices decrease
        {MakeFlow(1, 10), MakeFlow(1, 9)},         // start decreases in a device
        {MakeFlow(1, 10), MakeFlow(3, 5), MakeFlow(3, 4)},
    };
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_THROW(give(ds, bad[i], borrow), std::invalid_argument) << "case " << i;
      EXPECT_EQ(ds.num_flows(), good.size()) << "case " << i;
      EXPECT_EQ(offsets(ds), (std::vector<std::uint64_t>{0, 0, 3, 3, 5, 5}));
    }

    // A device added after the flows gets an empty slice at the end.
    EXPECT_EQ(ds.AddDevice(privacy::DeviceId{99}), 5u);
    EXPECT_EQ(offsets(ds), (std::vector<std::uint64_t>{0, 0, 3, 3, 5, 5, 5}));
    EXPECT_TRUE(ds.FlowsOfDevice(5).empty());

    // An empty dataset: no devices, no flows, the one-entry index.
    Dataset empty;
    give(empty, {}, borrow);
    EXPECT_EQ(offsets(empty), (std::vector<std::uint64_t>{0}));
    EXPECT_EQ(empty.num_flows(), 0u);
    EXPECT_THROW(give(empty, {MakeFlow(0, 1)}, borrow), std::invalid_argument);
  }
}

TEST(Dataset, FlowsOfDeviceBoundsChecked) {
  Dataset ds;
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
