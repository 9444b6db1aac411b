#include "core/pipeline.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <ostream>
#include <span>
#include <string>
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
#include "util/memstats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "world/oui_db.h"

namespace lockdown::core {
namespace {

// Shard size for the parallel passes. Chunk boundaries depend only on the
// input length (util/thread_pool.h), never on the thread count, so the
// chunk-ordered merges below give byte-identical results at any parallelism.
constexpr std::size_t kFlowGrain = 16384;

// A flow or UA record no DHCP lease covers.
constexpr std::uint32_t kNoSlot = dhcp::IpToMacNormalizer::kNoSlot;
// Per-slot marker for "no dataset device / domain assigned yet".
constexpr std::uint32_t kUnassigned = UINT32_MAX;

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

void PrintFunnel(const CollectionStats& stats, std::ostream& out) {
  const std::uint64_t kept = stats.raw_flows - stats.unattributed - stats.visitor_flows;
  util::TablePrinter table({"data funnel", "count"});
  table.AddRow({"tap-excluded events", std::to_string(stats.tap_excluded)});
  table.AddRow({"raw flows", std::to_string(stats.raw_flows)});
  table.AddRow({"  - unattributed (no DHCP lease)", std::to_string(stats.unattributed)});
  table.AddRow({"  - visitor-filtered", std::to_string(stats.visitor_flows)});
  table.AddRow({"  = kept flows", std::to_string(kept)});
  table.AddRow({"devices observed", std::to_string(stats.devices_observed)});
  table.AddRow({"  = kept devices", std::to_string(stats.devices_retained)});
  table.AddRow({"user-agent sightings kept", std::to_string(stats.ua_sightings)});
  table.Print(out);
}

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
  // The capture's or the ingest's scratch is free by now; without this its
  // heap pages would stay resident through pass 3, the run's peak.
  util::ReleaseFreeHeap();
  CollectionResult result;
  CollectionStats& stats = result.stats;
  const std::size_t n = inputs.flows.size();
  stats.raw_flows = n;
  stats.tap_excluded = inputs.tap_excluded;

  // --- Attribution indexes ---------------------------------------------------
  // The normalizer numbers each distinct MAC with a dense slot. Every
  // per-flow table below is keyed by that slot, so the SipHash pseudonym is
  // computed once per MAC. `device_slot` folds MACs whose pseudonyms collide
  // onto the first such slot, keeping one device per pseudonym.
  const dhcp::IpToMacNormalizer normalizer(inputs.dhcp_log);
  const dns::IpToDomainMapper mapper(inputs.dns_log);
  const std::size_t num_macs = normalizer.num_macs();
  std::vector<privacy::DeviceId> device_ids(num_macs);
  std::vector<std::uint32_t> device_slot(num_macs);
  {
    std::unordered_map<privacy::DeviceId, std::uint32_t, privacy::DeviceIdHash> first;
    for (std::uint32_t s = 0; s < num_macs; ++s) {
      device_ids[s] = anonymizer.AnonymizeMac(normalizer.mac(s));
      device_slot[s] = first.try_emplace(device_ids[s], s).first->second;
    }
  }
  // Pass 1 and the UA scan each look up through their own cursor.
  const auto attribute = [&](dhcp::IpToMacNormalizer::Cursor& cursor,
                             net::Ipv4Address ip, util::Timestamp ts) {
    const std::uint32_t s = cursor.LookupSlot(ip, ts);
    return s == kNoSlot ? s : device_slot[s];
  };

  const util::ThreadPool pool(util::ResolveThreadCount(threads));
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kFlowGrain);

  // --- Pass 1 (sharded): device attribution + visitor observation -------------
  // Each chunk writes its flows' device slots into disjoint entries of
  // `slots` and emits one (slot, start) mark each time a device's day
  // changes within the chunk. The marks feed one VisitorFilter in chunk
  // order; day sets are sets, so it reproduces the serial scan exactly.
  std::vector<std::uint32_t> slots(n);
  std::vector<std::vector<std::pair<std::uint32_t, util::Timestamp>>> marks(num_chunks);
  std::vector<std::uint64_t> shard_unattributed(num_chunks, 0);
  privacy::VisitorFilter visitors(visitor_min_days);
  std::vector<std::uint8_t> retained(num_macs, 0);
  {
    OBS_SPAN("pipeline/pass1_attribution");
    pool.ParallelFor(n, kFlowGrain,
                     [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                       std::vector<std::int64_t> last_day(num_macs, -1);
                       dhcp::IpToMacNormalizer::Cursor cursor(normalizer);
                       for (std::size_t i = begin; i < end; ++i) {
                         const flow::FlowRecord& rec = inputs.flows[i];
                         const std::uint32_t s =
                             attribute(cursor, rec.client_ip, rec.start);
                         slots[i] = s;
                         if (s == kNoSlot) {
                           ++shard_unattributed[chunk];
                           continue;
                         }
                         const std::int64_t day = util::DayIndexOf(rec.start);
                         if (last_day[s] != day) {
                           last_day[s] = day;
                           marks[chunk].emplace_back(s, rec.start);
                         }
                       }
                     });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      stats.unattributed += shard_unattributed[c];
      for (const auto& [s, ts] : marks[c]) visitors.Observe(device_ids[s], ts);
    }
    marks.clear();
    for (std::size_t s = 0; s < num_macs; ++s) {
      retained[s] = visitors.Retained(device_ids[s]) ? 1 : 0;
    }
  }
  stats.devices_observed = visitors.num_observed();
  stats.devices_retained = visitors.num_retained();

  // --- Pass 2 (sharded): retention check + DNS mapping -------------------------
  // Reads the frozen per-slot retention table; writes each retained flow's
  // mapper name id (kNoName for raw-IP traffic) into disjoint slots.
  std::vector<std::uint32_t> names(n);
  std::vector<std::uint64_t> shard_visitor(num_chunks, 0);
  {
    OBS_SPAN("pipeline/pass2_retention_dns");
    pool.ParallelFor(n, kFlowGrain,
                     [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         const std::uint32_t s = slots[i];
                         if (s == kNoSlot) continue;
                         if (retained[s] == 0) {
                           ++shard_visitor[chunk];
                           continue;
                         }
                         const flow::FlowRecord& rec = inputs.flows[i];
                         names[i] = mapper.LookupId(rec.server_ip, rec.start);
                       }
                     });
    for (const std::uint64_t v : shard_visitor) stats.visitor_flows += v;
  }

  // --- Pass 3 (serial): place every kept flow at its final position -----------
  // Device indices and interned-domain ids are assigned in first-appearance
  // order over the original flow sequence, so the dataset is byte-identical
  // to a serial build at any thread count. A first scan numbers the devices
  // and counts their kept flows, which fixes each device's slice of the
  // dataset's flow array; the second constructs each flow once, in place in
  // its device's slice in flow order. A stable sort of each slice by start
  // then gives the (device, start) order Dataset::BorrowFlows requires, ties
  // in flow order.
  Dataset& ds = result.dataset;
  std::vector<DeviceIndex> device_index(num_macs, kUnassigned);
  std::vector<DomainId> domain_of(mapper.num_names(), kUnassigned);
  const util::Timestamp study_start = util::StudyCalendar::StartTs();
  {
    OBS_SPAN("pipeline/pass3_assemble");
    // `slots` now takes each flow's dataset device (kUnassigned if dropped).
    std::vector<std::uint64_t> offsets(1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t s = slots[i];
      if (s == kNoSlot || retained[s] == 0) {
        slots[i] = kUnassigned;
        continue;
      }
      DeviceIndex& dev = device_index[s];
      if (dev == kUnassigned) {
        dev = ds.AddDevice(device_ids[s]);
        const net::MacAddress mac = normalizer.mac(s);
        classify::DeviceObservations& obs = ds.device_mutable(dev).observations;
        obs.oui = mac.oui();
        obs.locally_administered = world::OuiDatabase::IsLocallyAdministered(mac);
        offsets.push_back(0);
      }
      slots[i] = dev;
      ++offsets[dev + 1];
    }
    for (std::size_t d = 1; d < offsets.size(); ++d) offsets[d] += offsets[d - 1];

    // Fresh pages, so nothing is written before a flow is placed; the raw
    // flows and the per-flow tables give their pages back chunk by chunk as
    // the placement passes them, so the two flow arrays are never both
    // whole in memory.
    const std::size_t kept = offsets.back();
    const std::shared_ptr<Flow[]> placed = util::MapArray<Flow>(kept);
    const std::span<Flow> flows(placed.get(), kept);
    std::vector<std::uint64_t> next(offsets.begin(), offsets.end() - 1);
    const auto release = [](const auto& table, std::size_t begin, std::size_t end) {
      util::ReleasePages(std::as_bytes(std::span(table).subspan(begin, end - begin)));
    };
    for (std::size_t begin = 0; begin < n; begin += kFlowGrain) {
      const std::size_t end = std::min(n, begin + kFlowGrain);
      for (std::size_t i = begin; i < end; ++i) {
        const DeviceIndex dev = slots[i];
        if (dev == kUnassigned) continue;
        DomainId domain = kNoDomain;
        if (names[i] != dns::IpToDomainMapper::kNoName) {
          DomainId& interned = domain_of[names[i]];
          if (interned == kUnassigned) {
            interned = ds.InternDomain(mapper.name(names[i]));
          }
          domain = interned;
        }

        const flow::FlowRecord& rec = inputs.flows[i];
        // Value-initialized first, so the padding byte is zero as in a
        // decoded snapshot.
        Flow& f = *::new (&flows[next[dev]++]) Flow();
        f.start_offset_s = static_cast<std::uint32_t>(rec.start - study_start);
        f.duration_s = static_cast<float>(rec.duration_s);
        f.device = dev;
        f.domain = domain;
        f.server_ip = rec.server_ip;
        f.server_port = rec.server_port;
        f.proto = static_cast<std::uint8_t>(rec.proto);
        f.bytes_up = rec.bytes_up;
        f.bytes_down = rec.bytes_down;
      }
      release(inputs.flows, begin, end);
      release(slots, begin, end);
      release(names, begin, end);
    }
    // The raw flows and per-flow tables are done; free them before the
    // slice sorts take their scratch buffers.
    std::vector<flow::FlowRecord>().swap(inputs.flows);
    std::vector<std::uint32_t>().swap(slots);
    std::vector<std::uint32_t>().swap(names);
    const auto by_start = [](const Flow& a, const Flow& b) {
      return a.start_offset_s < b.start_offset_s;
    };
    for (std::size_t d = 0; d + 1 < offsets.size(); ++d) {
      const auto first = flows.begin() + static_cast<std::ptrdiff_t>(offsets[d]);
      const auto last = flows.begin() + static_cast<std::ptrdiff_t>(offsets[d + 1]);
      if (!std::is_sorted(first, last, by_start)) {
        std::stable_sort(first, last, by_start);
      }
    }
    ds.BorrowFlows(flows, placed);
  }

  // --- User-Agent sightings ----------------------------------------------------
  // Serial, so AddUserAgent's first-seen dedup matches log order. Every
  // record lands in exactly one counter: sightings, unattributed (no
  // covering lease), or visitor_dropped (attributed to a device the dataset
  // does not hold).
  {
    OBS_SPAN("pipeline/ua_sightings");
    dhcp::IpToMacNormalizer::Cursor cursor(normalizer);
    for (const logs::UaRecord& ua : inputs.ua_log) {
      const std::uint32_t s = attribute(cursor, ua.client_ip, ua.ts);
      if (s == kNoSlot) {
        ++stats.ua_unattributed;
        continue;
      }
      if (device_index[s] == kUnassigned) {
        ++stats.ua_visitor_dropped;
        continue;
      }
      ds.device_mutable(device_index[s]).observations.AddUserAgent(ua.user_agent);
      ++stats.ua_sightings;
    }
  }

  RecordPipelineStats(stats, ds.num_flows());
  return result;
}

CapturedFlows CaptureFlows(sim::TrafficGenerator& generator,
                           const world::ServiceCatalog& catalog) {
  OBS_SPAN("sim/generate");
  // The assembler's records go to fixed blocks that never grow, each its own
  // page mapping; a growing array would copy all records so far into a
  // block twice their size while the old one is still live.
  constexpr std::size_t kBlockRecords = 65536;  // 3 MiB
  using Block = std::vector<flow::FlowRecord, util::PageAllocator<flow::FlowRecord>>;
  std::vector<Block> blocks;
  CapturedFlows captured;
  const auto append = [&blocks](const flow::FlowRecord& rec) {
    if (blocks.empty() || blocks.back().size() == kBlockRecords) {
      blocks.emplace_back().reserve(kBlockRecords);
    }
    blocks.back().push_back(rec);
  };
  flow::Assembler assembler(flow::AssemblerConfig{}, append);
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
  // One exactly sized array; each block is unmapped as soon as it is copied.
  std::size_t total = 0;
  for (const Block& block : blocks) total += block.size();
  captured.flows.reserve(total);
  for (Block& block : blocks) {
    captured.flows.insert(captured.flows.end(), block.begin(), block.end());
    Block().swap(block);
  }
  return captured;
}

RawInputs MeasurementPipeline::Capture(const StudyConfig& config,
                                      const world::ServiceCatalog& catalog) {
  sim::TrafficGenerator generator(config.generator, catalog);
  CapturedFlows captured = CaptureFlows(generator, catalog);
  RawInputs inputs;
  inputs.flows = std::move(captured.flows);
  inputs.tap_excluded = captured.tap_excluded;
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
  return inputs;
}

CollectionResult MeasurementPipeline::Collect(const StudyConfig& config,
                                              const world::ServiceCatalog& catalog) {
  OBS_SPAN("pipeline/collect");
  return Process(Capture(config, catalog), MakeAnonymizer(config),
                 config.visitor_min_days, config.threads);
}

}  // namespace lockdown::core
