#include "core/pipeline.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dhcp/normalizer.h"
#include "dns/mapper.h"
#include "flow/assembler.h"
#include "obs/obs.h"
#include "privacy/visitor_filter.h"
#include "sim/generator.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "world/oui_db.h"

namespace lockdown::core {
namespace {

// Shard size for the parallel passes. Chunk boundaries depend only on the
// input length (util/thread_pool.h), never on the thread count, so the
// chunk-ordered merges below give byte-identical results at any parallelism.
constexpr std::size_t kFlowGrain = 16384;

// Per-flow outcome of the retention/mapping pass (pass 2).
enum Disposition : std::uint8_t {
  kDrop = 0,        // no covering DHCP lease
  kVisitor = 1,     // attributed, but the device failed the 14-day filter
  kKeep = 2,        // retained, server IP never resolved in the DNS log
  kKeepDomain = 3,  // retained, with an attributed domain
};

// Counters summarizing a finished Process call; values mirror the
// CollectionStats the caller already gets, so --metrics-out sees them too.
void RecordPipelineStats(const CollectionStats& stats,
                         std::uint64_t kept_flows) {
  if (!obs::MetricsEnabled()) return;
  obs::GetCounter("pipeline/raw_flows", "flows").Add(stats.raw_flows);
  obs::GetCounter("pipeline/unattributed_flows", "flows").Add(stats.unattributed);
  obs::GetCounter("pipeline/visitor_flows", "flows").Add(stats.visitor_flows);
  obs::GetCounter("pipeline/kept_flows", "flows").Add(kept_flows);
  obs::GetCounter("pipeline/devices_observed", "devices")
      .Add(stats.devices_observed);
  obs::GetCounter("pipeline/devices_retained", "devices")
      .Add(stats.devices_retained);
  obs::GetCounter("pipeline/ua_sightings", "records").Add(stats.ua_sightings);
}

}  // namespace

privacy::Anonymizer MeasurementPipeline::MakeAnonymizer(const StudyConfig& config) {
  // Per-run key derived from the seed so runs are reproducible; a deployment
  // would draw this from a CSPRNG and destroy it after processing.
  const std::uint64_t seed = config.generator.population.seed;
  return privacy::Anonymizer(util::SipHashKey{
      seed * 0x9E3779B97F4A7C15ULL + 0x1234, seed * 0xC2B2AE3D27D4EB4FULL + 0x5678});
}

CollectionResult MeasurementPipeline::Process(RawInputs inputs,
                                              const privacy::Anonymizer& anonymizer,
                                              int visitor_min_days,
                                              int threads) {
  OBS_SPAN("pipeline/process");
  CollectionResult result;
  CollectionStats& stats = result.stats;
  const std::size_t n = inputs.flows.size();
  stats.raw_flows = n;

  // --- Attribution indexes ---------------------------------------------------
  const dhcp::IpToMacNormalizer normalizer(inputs.dhcp_log);
  const dns::IpToDomainMapper mapper(inputs.dns_log);

  const util::ThreadPool pool(util::ResolveThreadCount(threads));
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kFlowGrain);

  // --- Pass 1 (sharded): device attribution + visitor observation -------------
  // Each chunk runs its DHCP lookups and accumulates into thread-local shards
  // (a VisitorFilter and an unattributed counter); per-flow results land in
  // disjoint slots of the shared arrays. Shards merge in chunk order below —
  // day sets union order-independently, so the merged filter reproduces the
  // serial scan exactly.
  std::vector<std::uint64_t> record_macs(n, 0);
  std::vector<privacy::DeviceId> device_ids(n);
  std::vector<privacy::VisitorFilter> shard_visitors(
      num_chunks, privacy::VisitorFilter(visitor_min_days));
  std::vector<std::uint64_t> shard_unattributed(num_chunks, 0);
  privacy::VisitorFilter visitors(visitor_min_days);
  {
    OBS_SPAN("pipeline/pass1_attribution");
    pool.ParallelFor(n, kFlowGrain,
                     [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                       privacy::VisitorFilter& shard = shard_visitors[chunk];
                       for (std::size_t i = begin; i < end; ++i) {
                         const flow::FlowRecord& rec = inputs.flows[i];
                         const auto mac = normalizer.Lookup(rec.client_ip, rec.start);
                         if (!mac) {
                           ++shard_unattributed[chunk];
                           continue;
                         }
                         record_macs[i] = mac->value();
                         device_ids[i] = anonymizer.AnonymizeMac(*mac);
                         shard.Observe(device_ids[i], rec.start);
                       }
                     });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      stats.unattributed += shard_unattributed[c];
      visitors.Merge(shard_visitors[c]);
    }
    shard_visitors.clear();
  }
  stats.devices_observed = visitors.num_observed();
  stats.devices_retained = visitors.num_retained();

  // --- Pass 2 (sharded): retention check + DNS mapping -------------------------
  // Reads the now-frozen visitor filter; writes disjoint per-flow slots. The
  // domain views point into inputs.dns_log, which outlives this function's
  // use of them.
  std::vector<std::uint8_t> disposition(n, kDrop);
  std::vector<std::string_view> domains(n);
  {
    OBS_SPAN("pipeline/pass2_retention_dns");
    pool.ParallelFor(n, kFlowGrain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         if (record_macs[i] == 0) continue;
                         if (!visitors.Retained(device_ids[i])) {
                           disposition[i] = kVisitor;
                           continue;
                         }
                         const flow::FlowRecord& rec = inputs.flows[i];
                         const auto domain = mapper.Lookup(rec.server_ip, rec.start);
                         if (domain) {
                           disposition[i] = kKeepDomain;
                           domains[i] = *domain;
                         } else {
                           disposition[i] = kKeep;
                         }
                       }
                     });
  }

  // --- Pass 3 (serial merge): assemble the dataset in flow order ---------------
  // Device indices and interned-domain ids are assigned in first-appearance
  // order over the original flow sequence — the merge order is the chunk
  // order, which is the input order, so the dataset is byte-identical to a
  // serial build.
  Dataset& ds = result.dataset;
  std::unordered_map<privacy::DeviceId, DeviceIndex, privacy::DeviceIdHash> index;
  const util::Timestamp study_start = util::StudyCalendar::StartTs();
  {
    OBS_SPAN("pipeline/pass3_assemble");
    for (std::size_t i = 0; i < n; ++i) {
      if (disposition[i] == kDrop) continue;
      if (disposition[i] == kVisitor) {
        ++stats.visitor_flows;
        continue;
      }
      const net::MacAddress mac(record_macs[i]);
      const flow::FlowRecord& rec = inputs.flows[i];
      auto [it, inserted] = index.try_emplace(device_ids[i], 0);
      if (inserted) {
        it->second = ds.AddDevice(device_ids[i]);
        classify::DeviceObservations& obs = ds.device_mutable(it->second).observations;
        obs.oui = mac.oui();
        obs.locally_administered = world::OuiDatabase::IsLocallyAdministered(mac);
      }
      const DeviceIndex dev = it->second;

      Flow f;
      f.start_offset_s = static_cast<std::uint32_t>(rec.start - study_start);
      f.duration_s = static_cast<float>(rec.duration_s);
      f.device = dev;
      f.domain = disposition[i] == kKeepDomain ? ds.InternDomain(domains[i]) : kNoDomain;
      f.server_ip = rec.server_ip;
      f.server_port = rec.server_port;
      f.proto = static_cast<std::uint8_t>(rec.proto);
      f.bytes_up = rec.bytes_up;
      f.bytes_down = rec.bytes_down;
      ds.AddFlow(f);
    }
  }

  // --- User-Agent sightings ----------------------------------------------------
  // The lookups (DHCP scan + SipHash) shard like pass 1; the accounting fold
  // stays serial so AddUserAgent's first-seen dedup matches log order. Every
  // record lands in exactly one counter: sightings, unattributed (no covering
  // lease), or visitor_dropped (attributed to a device the filter discarded).
  {
    OBS_SPAN("pipeline/ua_sightings");
    const std::size_t num_ua = inputs.ua_log.size();
    std::vector<privacy::DeviceId> ua_ids(num_ua);
    std::vector<std::uint8_t> ua_attributed(num_ua, 0);
    pool.ParallelFor(num_ua, kFlowGrain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         const logs::UaRecord& ua = inputs.ua_log[i];
                         const auto mac = normalizer.Lookup(ua.client_ip, ua.ts);
                         if (!mac) continue;
                         ua_attributed[i] = 1;
                         ua_ids[i] = anonymizer.AnonymizeMac(*mac);
                       }
                     });
    for (std::size_t i = 0; i < num_ua; ++i) {
      if (!ua_attributed[i]) {
        ++stats.ua_unattributed;
        continue;
      }
      const auto it = index.find(ua_ids[i]);
      if (it == index.end()) {
        ++stats.ua_visitor_dropped;
        continue;
      }
      ds.device_mutable(it->second).observations.AddUserAgent(
          inputs.ua_log[i].user_agent);
      ++stats.ua_sightings;
    }
  }

  ds.Finalize();
  RecordPipelineStats(stats, ds.num_flows());
  return result;
}

CapturedFlows CaptureFlows(sim::TrafficGenerator& generator,
                           const world::ServiceCatalog& catalog) {
  OBS_SPAN("sim/generate");
  CapturedFlows captured;
  flow::Assembler assembler(flow::AssemblerConfig{},
                            [&captured](const flow::FlowRecord& rec) {
                              captured.flows.push_back(rec);
                            });
  generator.Run([&](const flow::TapEvent& ev) {
    // Tap exclusion list (§3): traffic to these networks is never mirrored.
    const auto svc = catalog.FindByIp(ev.tuple.dst_ip);
    if (svc && catalog.Get(*svc).tap_excluded) {
      ++captured.tap_excluded;
      return;
    }
    assembler.Ingest(ev);
  });
  assembler.Finish();
  return captured;
}

CollectionResult MeasurementPipeline::Collect(const StudyConfig& config,
                                              const world::ServiceCatalog& catalog) {
  OBS_SPAN("pipeline/collect");
  // --- Stage 1: tap capture + flow extraction ---------------------------------
  sim::TrafficGenerator generator(config.generator, catalog);
  CapturedFlows captured = CaptureFlows(generator, catalog);
  RawInputs inputs;
  inputs.flows = std::move(captured.flows);
  inputs.dhcp_log = generator.dhcp_log();
  inputs.dns_log = generator.dns_log();
  inputs.ua_log.reserve(generator.ua_sightings().size());
  for (const sim::UaSighting& ua : generator.ua_sightings()) {
    inputs.ua_log.push_back(
        logs::UaRecord{ua.ts, ua.client_ip, std::string(ua.user_agent)});
  }
  if (obs::MetricsEnabled()) {
    obs::GetCounter("sim/tap_excluded", "events").Add(captured.tap_excluded);
  }

  // --- Stages 2-5 --------------------------------------------------------------
  CollectionResult result = Process(std::move(inputs), MakeAnonymizer(config),
                                    config.visitor_min_days, config.threads);
  result.stats.tap_excluded = captured.tap_excluded;
  return result;
}

}  // namespace lockdown::core
