#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/generator.h"
#include "world/oui_db.h"

#include "dataset_equal.h"
#include "sorted_flows.h"

namespace lockdown::core {
namespace {

// One shared small collection: pipeline runs are deterministic, and several
// tests can examine the same result.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new StudyConfig(StudyConfig::Small(80, 77));
    result_ = new CollectionResult(MeasurementPipeline::Collect(*config_));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete config_;
    result_ = nullptr;
    config_ = nullptr;
  }

  static StudyConfig* config_;
  static CollectionResult* result_;
};

StudyConfig* PipelineTest::config_ = nullptr;
CollectionResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, ProducesNonTrivialDataset) {
  EXPECT_GT(result_->dataset.num_flows(), 50000u);
  EXPECT_GT(result_->dataset.num_devices(), 100u);
  EXPECT_GT(result_->dataset.num_domains(), 50u);
}

TEST_F(PipelineTest, TapExclusionDropsTraffic) {
  // iPhones sync to iCloud daily; Apple is on the exclusion list, so the
  // counter must be busy.
  EXPECT_GT(result_->stats.tap_excluded, 1000u);
  // And no excluded-service address may appear in the dataset.
  const auto& catalog = world::ServiceCatalog::Default();
  for (const Flow& f : result_->dataset.flows()) {
    const auto svc = catalog.FindByIp(f.server_ip);
    ASSERT_TRUE(svc.has_value());
    EXPECT_FALSE(catalog.Get(*svc).tap_excluded)
        << catalog.Get(*svc).name;
  }
}

TEST_F(PipelineTest, VisitorFilterApplied) {
  EXPECT_LE(result_->stats.devices_retained, result_->stats.devices_observed);
  EXPECT_EQ(result_->dataset.num_devices(), result_->stats.devices_retained);
}

// Collect is Process over Capture; the tap-exclusion count rides along in
// RawInputs, so processing one capture twice reproduces it exactly.
TEST_F(PipelineTest, CollectIsProcessOfCapture) {
  const RawInputs raw = MeasurementPipeline::Capture(*config_);
  EXPECT_EQ(raw.tap_excluded, result_->stats.tap_excluded);
  const privacy::Anonymizer anon = MeasurementPipeline::MakeAnonymizer(*config_);
  for (int pass = 0; pass < 2; ++pass) {
    testing::ExpectSameCollection(
        MeasurementPipeline::Process(raw, anon, config_->visitor_min_days), *result_);
  }
}

// One row per funnel stage, and the kept rows are the dataset's sizes.
TEST_F(PipelineTest, FunnelTableMatchesTheDataset) {
  std::ostringstream out;
  PrintFunnel(result_->stats, out);
  const std::string text = out.str();
  const auto row = [&text](const std::string& label, std::uint64_t value) {
    return text.find(label) != std::string::npos &&
           text.find(std::to_string(value), text.find(label)) != std::string::npos;
  };
  const CollectionStats& st = result_->stats;
  EXPECT_TRUE(row("tap-excluded events", st.tap_excluded)) << text;
  EXPECT_TRUE(row("raw flows", st.raw_flows)) << text;
  EXPECT_TRUE(row("unattributed", st.unattributed)) << text;
  EXPECT_TRUE(row("visitor-filtered", st.visitor_flows)) << text;
  EXPECT_TRUE(row("kept flows", result_->dataset.num_flows())) << text;
  EXPECT_TRUE(row("devices observed", st.devices_observed)) << text;
  EXPECT_TRUE(row("kept devices", result_->dataset.num_devices())) << text;
}

TEST_F(PipelineTest, MostFlowsAttributedAndMapped) {
  const auto& st = result_->stats;
  EXPECT_LT(static_cast<double>(st.unattributed),
            0.02 * static_cast<double>(st.raw_flows));
  // Most flows should carry a DNS-mapped domain (raw-IP Zoom media being the
  // main exception).
  std::size_t with_domain = 0;
  for (const Flow& f : result_->dataset.flows()) {
    with_domain += f.domain != kNoDomain;
  }
  EXPECT_GT(static_cast<double>(with_domain),
            0.9 * static_cast<double>(result_->dataset.num_flows()));
}

TEST_F(PipelineTest, ObservationsAccumulated) {
  std::size_t with_ua = 0;
  std::size_t with_oui = 0;
  for (DeviceIndex i = 0; i < result_->dataset.num_devices(); ++i) {
    const auto& obs = result_->dataset.device(i).observations;
    EXPECT_FALSE(result_->dataset.FlowsOfDevice(i).empty());
    with_ua += !obs.user_agents.empty();
    with_oui += !obs.locally_administered && obs.oui != 0;
  }
  EXPECT_GT(with_ua, 0u);
  EXPECT_GT(with_oui, result_->dataset.num_devices() / 3);
}

TEST_F(PipelineTest, AnonymizationHidesMacs) {
  // Device ids must not be raw MAC values: check that no id matches any
  // population MAC under the trivial embedding.
  sim::Population pop(config_->generator.population);
  std::unordered_set<std::uint64_t> macs;
  for (const auto& d : pop.devices()) macs.insert(d.mac.value());
  for (DeviceIndex i = 0; i < result_->dataset.num_devices(); ++i) {
    EXPECT_FALSE(macs.count(result_->dataset.device(i).id.value));
  }
}

TEST_F(PipelineTest, AnonymizerLinksGroundTruth) {
  // The exposed anonymizer (simulation-only) must map population MACs onto
  // dataset device ids.
  const auto anon = MeasurementPipeline::MakeAnonymizer(*config_);
  sim::Population pop(config_->generator.population);
  std::unordered_set<std::uint64_t> ids;
  for (DeviceIndex i = 0; i < result_->dataset.num_devices(); ++i) {
    ids.insert(result_->dataset.device(i).id.value);
  }
  std::size_t linked = 0;
  for (const auto& d : pop.devices()) {
    linked += ids.count(anon.AnonymizeMac(d.mac).value);
  }
  EXPECT_EQ(linked, result_->dataset.num_devices());
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  const auto again = MeasurementPipeline::Collect(*config_);
  EXPECT_EQ(again.dataset.num_flows(), result_->dataset.num_flows());
  EXPECT_EQ(again.dataset.num_devices(), result_->dataset.num_devices());
  EXPECT_EQ(again.stats.tap_excluded, result_->stats.tap_excluded);
  // Spot-check flow equality.
  for (std::size_t i = 0; i < again.dataset.num_flows(); i += 1009) {
    const Flow& a = again.dataset.flows()[i];
    const Flow& b = result_->dataset.flows()[i];
    EXPECT_EQ(a.start_offset_s, b.start_offset_s);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.bytes_down, b.bytes_down);
  }
}

// Hand-crafted inputs exercising every arm of the UA accounting: a retained
// device, a visitor-filtered device, and a sighting from an IP no lease ever
// covered. Process must route each UA record into exactly one counter.
TEST(PipelineUaAccounting, EveryUaRecordLandsInExactlyOneCounter) {
  const util::Timestamp t0 = util::StudyCalendar::StartTs();
  const net::MacAddress resident_mac(0x0017F2000001ULL);
  const net::MacAddress visitor_mac(0x0017F2000002ULL);
  const net::Ipv4Address resident_ip(10, 16, 0, 1);
  const net::Ipv4Address visitor_ip(10, 16, 0, 2);
  const net::Ipv4Address unleased_ip(10, 16, 0, 3);
  const net::Ipv4Address server_ip(198, 51, 100, 7);

  RawInputs inputs;
  const util::Timestamp lease_end = t0 + 40 * util::kSecondsPerDay;
  inputs.dhcp_log.push_back(dhcp::Lease{resident_mac, resident_ip, t0, lease_end});
  inputs.dhcp_log.push_back(dhcp::Lease{visitor_mac, visitor_ip, t0, lease_end});

  const int min_days = 14;
  auto flow_at = [&](net::Ipv4Address client, int day) {
    flow::FlowRecord rec;
    rec.start = t0 + day * util::kSecondsPerDay + 3600;
    rec.duration_s = 10.0;
    rec.client_ip = client;
    rec.server_ip = server_ip;
    rec.server_port = 443;
    rec.bytes_up = 1000;
    rec.bytes_down = 20000;
    return rec;
  };
  // Resident: clears the 14-distinct-day retention bar. Visitor: two days.
  for (int day = 0; day < min_days + 2; ++day) {
    inputs.flows.push_back(flow_at(resident_ip, day));
    if (day < 2) inputs.flows.push_back(flow_at(visitor_ip, day));
  }

  const util::Timestamp ua_ts = t0 + 3600;
  inputs.ua_log.push_back(logs::UaRecord{ua_ts, resident_ip, "Mozilla/5.0 resident"});
  inputs.ua_log.push_back(logs::UaRecord{ua_ts, visitor_ip, "Mozilla/5.0 visitor"});
  inputs.ua_log.push_back(logs::UaRecord{ua_ts, unleased_ip, "Mozilla/5.0 stranger"});
  const std::size_t total_ua = inputs.ua_log.size();

  const privacy::Anonymizer anon(util::SipHashKey{11, 22});
  const auto result =
      MeasurementPipeline::Process(std::move(inputs), anon, min_days);

  EXPECT_EQ(result.stats.ua_sightings, 1u);
  EXPECT_EQ(result.stats.ua_visitor_dropped, 1u);
  EXPECT_EQ(result.stats.ua_unattributed, 1u);
  EXPECT_EQ(result.stats.ua_sightings + result.stats.ua_visitor_dropped +
                result.stats.ua_unattributed,
            total_ua);

  // Only the resident survives the filter, and only its UA string is kept.
  ASSERT_EQ(result.dataset.num_devices(), 1u);
  const auto& obs = result.dataset.device(0).observations;
  ASSERT_EQ(obs.user_agents.size(), 1u);
  EXPECT_EQ(obs.user_agents[0], "Mozilla/5.0 resident");
}

// MacAddress::Parse accepts 00:00:00:00:00:00, so a lease may name MAC 0.
// Its device is an ordinary device: every raw flow lands in exactly one of
// kept / visitor / unattributed, and every retained device reaches the
// dataset.
TEST(PipelineFunnel, ZeroMacLeaseIsAttributedLikeAnyOther) {
  const util::Timestamp t0 = util::StudyCalendar::StartTs();
  const net::MacAddress zero_mac = net::MacAddress::Parse("00:00:00:00:00:00").value();
  const net::MacAddress visitor_mac(0x0017F2000002ULL);
  const net::Ipv4Address zero_ip(10, 16, 0, 1);
  const net::Ipv4Address visitor_ip(10, 16, 0, 2);
  const net::Ipv4Address unleased_ip(10, 16, 0, 3);

  RawInputs inputs;
  const util::Timestamp lease_end = t0 + 40 * util::kSecondsPerDay;
  inputs.dhcp_log.push_back(dhcp::Lease{zero_mac, zero_ip, t0, lease_end});
  inputs.dhcp_log.push_back(dhcp::Lease{visitor_mac, visitor_ip, t0, lease_end});
  auto flow_at = [&](net::Ipv4Address client, int day) {
    flow::FlowRecord rec;
    rec.start = t0 + day * util::kSecondsPerDay + 3600;
    rec.duration_s = 10.0;
    rec.client_ip = client;
    rec.server_ip = net::Ipv4Address(198, 51, 100, 7);
    rec.server_port = 443;
    rec.bytes_up = 1000;
    rec.bytes_down = 20000;
    return rec;
  };
  const int min_days = 14;
  for (int day = 0; day < min_days + 2; ++day) {
    inputs.flows.push_back(flow_at(zero_ip, day));
    if (day < 2) inputs.flows.push_back(flow_at(visitor_ip, day));
  }
  inputs.flows.push_back(flow_at(unleased_ip, 0));

  const privacy::Anonymizer anon(util::SipHashKey{11, 22});
  const auto result = MeasurementPipeline::Process(std::move(inputs), anon, min_days);
  const CollectionStats& st = result.stats;

  EXPECT_EQ(st.raw_flows, 19u);
  EXPECT_EQ(result.dataset.num_flows(), 16u);
  EXPECT_EQ(st.visitor_flows, 2u);
  EXPECT_EQ(st.unattributed, 1u);
  EXPECT_EQ(st.raw_flows,
            result.dataset.num_flows() + st.visitor_flows + st.unattributed);
  EXPECT_EQ(st.devices_observed, 2u);
  EXPECT_EQ(st.devices_retained, 1u);
  ASSERT_EQ(result.dataset.num_devices(), st.devices_retained);
  EXPECT_EQ(result.dataset.device(0).id, anon.AnonymizeMac(zero_mac));
}

// The full simulated collection must satisfy the same partition invariant;
// any attributed-or-not miscount would break the equality.
TEST_F(PipelineTest, UaCountersPartitionTheLog) {
  const auto& st = result_->stats;
  EXPECT_GT(st.ua_sightings, 0u);
  // The simulator emits visitors and pre-lease sightings, so both miss
  // counters should be exercised at this population size.
  EXPECT_GT(st.ua_visitor_dropped, 0u);
  // Re-run the offline path to learn the raw UA-log size and check the sum.
  sim::TrafficGenerator generator(config_->generator,
                                  world::ServiceCatalog::Default());
  generator.Run([](const flow::TapEvent&) {});
  const std::size_t total_ua = generator.ua_sightings().size();
  EXPECT_EQ(st.ua_sightings + st.ua_unattributed + st.ua_visitor_dropped,
            total_ua);
}

TEST_F(PipelineTest, DifferentSeedsProduceDifferentPseudonyms) {
  auto cfg2 = *config_;
  cfg2.generator.population.seed = config_->generator.population.seed + 1;
  const auto anon1 = MeasurementPipeline::MakeAnonymizer(*config_);
  const auto anon2 = MeasurementPipeline::MakeAnonymizer(cfg2);
  const net::MacAddress mac(0x123456789ABCULL);
  EXPECT_NE(anon1.AnonymizeMac(mac), anon2.AnonymizeMac(mac));
}

// The dataset's flow array is one global stable sort by (device, start) of
// the kept flows in input order, at any thread count. Each input flow
// carries its input rank in bytes_up, which Process copies verbatim, so the
// kept flows in input order can be recovered from the dataset itself; the
// reversed input gives the per-device slice sorts unsorted runs and ties in
// the opposite order. Inputs cut to one flow either side of the 16,384-flow
// chunks whose raw pages pass 3 releases as it goes, and to three chunks
// plus one, put every release edge under the sanitizer tiers.
TEST(Pipeline, DatasetIsStableDeviceStartSortOfKeptFlows) {
  const StudyConfig config = StudyConfig::Small(16, 2020);
  const RawInputs captured = MeasurementPipeline::Capture(config);
  const privacy::Anonymizer anon = MeasurementPipeline::MakeAnonymizer(config);
  ASSERT_GT(captured.flows.size(), 49153u);
  for (const std::size_t length : {captured.flows.size(), std::size_t{16383},
                                   std::size_t{16384}, std::size_t{16385},
                                   std::size_t{49153}}) {
    for (const bool reversed : {false, true}) {
      RawInputs inputs = captured;
      if (reversed) std::reverse(inputs.flows.begin(), inputs.flows.end());
      inputs.flows.resize(length);
      for (std::size_t i = 0; i < length; ++i) inputs.flows[i].bytes_up = i;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "length=" << length << " reversed="
                                          << reversed << " threads=" << threads);
        const CollectionResult result = MeasurementPipeline::Process(
            inputs, anon, config.visitor_min_days, threads);
        const auto flows = result.dataset.flows();
        ASSERT_GT(flows.size(), length / 2);
        std::vector<Flow> want(flows.begin(), flows.end());
        std::sort(want.begin(), want.end(), [](const Flow& a, const Flow& b) {
          return a.bytes_up < b.bytes_up;
        });
        ASSERT_TRUE(std::adjacent_find(want.begin(), want.end(),
                                       [](const Flow& a, const Flow& b) {
                                         return a.bytes_up == b.bytes_up;
                                       }) == want.end());
        testing::StableSortByDeviceStart(want);
        ASSERT_TRUE(std::ranges::equal(want, flows));
        // Ties on (device, start) exist, so their order is under test too.
        EXPECT_TRUE(std::adjacent_find(flows.begin(), flows.end(),
                                       [](const Flow& a, const Flow& b) {
                                         return a.device == b.device &&
                                                a.start_offset_s == b.start_offset_s;
                                       }) != flows.end());
      }
    }
  }
}

}  // namespace
}  // namespace lockdown::core
