// Performance ablations for the pipeline's design choices (DESIGN.md §5):
//  - interval-indexed DHCP normalization vs. naive log scan
//  - indexed signature matching vs. linear scan
//  - flow-assembler and sessionizer throughput
//  - geolocation midpoint accumulation and keyed anonymization
//  - LDS snapshot store: load (mmap zero-copy / portable copy) vs. a full
//    pipeline collection of the same dataset
//  - parallel processing + study at 1/2/4/8 threads vs. serial
//
// The end-to-end, per-layer ledger is perfbench/ (BENCHMARK.json), not this
// binary.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "apps/sessionizer.h"
#include "bench/common.h"
#include "core/offline.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "store/snapshot.h"
#include "apps/signature.h"
#include "dhcp/normalizer.h"
#include "dhcp/server.h"
#include "dns/resolver.h"
#include "flow/assembler.h"
#include "geo/geodesy.h"
#include "pcapio/tap_pcap.h"
#include "privacy/anonymizer.h"
#include "util/rng.h"
#include "world/catalog.h"

namespace {

using namespace lockdown;

// --- DHCP normalization -------------------------------------------------------

std::vector<dhcp::Lease> ChurnedLog(int devices, int days) {
  dhcp::ServerConfig cfg;
  cfg.lease_lifetime = 6 * util::kSecondsPerHour;
  cfg.renew_same_ip_prob = 0.8;
  dhcp::Server server({net::Cidr(net::Ipv4Address(10, 0, 0, 0), 16)}, cfg,
                      util::Pcg32(1));
  util::Pcg32 rng(2);
  for (int day = 0; day < days; ++day) {
    for (int m = 1; m <= devices; ++m) {
      if (rng.Bernoulli(0.7)) {
        server.Acquire(net::MacAddress(static_cast<std::uint64_t>(m)),
                       day * util::kSecondsPerDay +
                           rng.UniformInt(0, util::kSecondsPerDay - 1));
      }
    }
  }
  return server.log();
}

void BM_DhcpNormalizerIndexed(benchmark::State& state) {
  const auto log = ChurnedLog(500, 60);
  const dhcp::IpToMacNormalizer normalizer(log);
  util::Pcg32 rng(3);
  for (auto _ : state) {
    const net::Ipv4Address ip(10, 0, static_cast<std::uint8_t>(rng.NextBounded(4)),
                              static_cast<std::uint8_t>(rng.NextBounded(256)));
    benchmark::DoNotOptimize(
        normalizer.Lookup(ip, rng.UniformInt(0, 60 * util::kSecondsPerDay)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DhcpNormalizerIndexed);

void BM_DhcpNormalizerLinearScan(benchmark::State& state) {
  const auto log = ChurnedLog(500, 60);
  util::Pcg32 rng(3);
  for (auto _ : state) {
    const net::Ipv4Address ip(10, 0, static_cast<std::uint8_t>(rng.NextBounded(4)),
                              static_cast<std::uint8_t>(rng.NextBounded(256)));
    benchmark::DoNotOptimize(dhcp::IpToMacNormalizer::LookupLinear(
        log, ip, rng.UniformInt(0, 60 * util::kSecondsPerDay)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DhcpNormalizerLinearScan);

// --- Signature matching --------------------------------------------------------

apps::SignatureRegistry FullRegistry() {
  apps::SignatureRegistry reg;
  for (const world::Service& svc : world::ServiceCatalog::Default().services()) {
    if (svc.hosts.empty()) continue;
    reg.Add(apps::DomainSignature(svc.name, svc.hosts));
  }
  return reg;
}

std::vector<std::string> SampleHosts(int n) {
  const auto& catalog = world::ServiceCatalog::Default();
  util::Pcg32 rng(7);
  std::vector<std::string> hosts;
  for (int i = 0; i < n; ++i) {
    const auto& svc = catalog.Get(static_cast<world::ServiceId>(
        rng.NextBounded(static_cast<std::uint32_t>(catalog.size()))));
    if (svc.hosts.empty()) {
      hosts.push_back("unknown.example");
    } else {
      hosts.push_back("edge42." + svc.hosts[0]);
    }
  }
  return hosts;
}

void BM_SignatureMatchIndexed(benchmark::State& state) {
  const auto reg = FullRegistry();
  const auto hosts = SampleHosts(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.Match(hosts[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SignatureMatchIndexed);

void BM_SignatureMatchLinear(benchmark::State& state) {
  const auto reg = FullRegistry();
  const auto hosts = SampleHosts(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.MatchLinear(hosts[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SignatureMatchLinear);

// --- Flow assembly ---------------------------------------------------------------

void BM_FlowAssembler(benchmark::State& state) {
  // Pre-generate a realistic event mix: opens/data/closes across 4k tuples.
  std::vector<flow::TapEvent> events;
  util::Pcg32 rng(11);
  util::Timestamp ts = 0;
  for (int i = 0; i < 30000; ++i) {
    ts += rng.NextBounded(3);
    net::FiveTuple t;
    t.src_ip = net::Ipv4Address(0x0A000000 + rng.NextBounded(1000));
    t.dst_ip = net::Ipv4Address(0x40000000 + rng.NextBounded(1000));
    t.src_port = static_cast<net::Port>(32768 + rng.NextBounded(4096));
    t.dst_port = 443;
    const auto kind = static_cast<flow::EventKind>(rng.NextBounded(3));
    events.push_back(flow::TapEvent{ts, kind, t, rng.NextBounded(1000),
                                    rng.NextBounded(100000)});
  }
  for (auto _ : state) {
    std::uint64_t sink = 0;
    flow::Assembler assembler(flow::AssemblerConfig{},
                              [&sink](const flow::FlowRecord& r) {
                                sink += r.bytes_down;
                              });
    for (const auto& ev : events) assembler.Ingest(ev);
    assembler.Finish();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_FlowAssembler);

// --- Sessionizer -----------------------------------------------------------------

void BM_Sessionizer(benchmark::State& state) {
  util::Pcg32 rng(13);
  std::vector<apps::FlowInterval> flows;
  for (int i = 0; i < 2000; ++i) {
    const util::Timestamp s = rng.UniformInt(0, 1000000);
    flows.push_back(
        apps::FlowInterval{s, s + rng.UniformInt(10, 3000), rng.NextBounded(6), 100});
  }
  for (auto _ : state) {
    auto copy = flows;
    benchmark::DoNotOptimize(apps::MergeSessions(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_Sessionizer);

// --- Geodesy + anonymization --------------------------------------------------------

void BM_MidpointAccumulate(benchmark::State& state) {
  util::Pcg32 rng(17);
  std::vector<std::pair<world::GeoPoint, double>> points;
  for (int i = 0; i < 1024; ++i) {
    points.emplace_back(world::GeoPoint{rng.Uniform(-60, 60), rng.Uniform(-180, 180)},
                        rng.Uniform(1, 1e6));
  }
  for (auto _ : state) {
    geo::MidpointAccumulator acc;
    for (const auto& [p, w] : points) acc.Add(p, w);
    benchmark::DoNotOptimize(acc.Midpoint());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_MidpointAccumulate);

void BM_AnonymizeMac(benchmark::State& state) {
  const privacy::Anonymizer anonymizer(util::SipHashKey{123, 456});
  std::uint64_t mac = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anonymizer.AnonymizeMac(net::MacAddress(++mac)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnonymizeMac);

// --- DNS resolver -----------------------------------------------------------------

void BM_ResolverCacheHit(benchmark::State& state) {
  const auto& catalog = world::ServiceCatalog::Default();
  dns::Resolver resolver(
      [&catalog](std::string_view q) { return catalog.ResolveHost(q); },
      dns::ResolverConfig{3600, 0}, util::Pcg32(19));
  (void)resolver.Resolve(net::MacAddress(1), "zoom.us", 0);
  util::Timestamp ts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.Resolve(net::MacAddress(1), "zoom.us", ts));
    ts = (ts + 1) % 3000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolverCacheHit);

// --- Packet synthesis / parsing -----------------------------------------------

void BM_PacketSynthesize(benchmark::State& state) {
  pcapio::PacketInfo info;
  info.tuple = net::FiveTuple{net::Ipv4Address(10, 0, 0, 1),
                              net::Ipv4Address(64, 0, 0, 1), 40000, 443,
                              net::Protocol::kTcp};
  info.payload_len = 1448;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcapio::SynthesizePacket(info));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketSynthesize);

void BM_PacketParse(benchmark::State& state) {
  pcapio::PacketInfo info;
  info.tuple = net::FiveTuple{net::Ipv4Address(10, 0, 0, 1),
                              net::Ipv4Address(64, 0, 0, 1), 40000, 443,
                              net::Protocol::kTcp};
  info.payload_len = 1448;
  const auto pkt = pcapio::SynthesizePacket(info);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcapio::ParsePacket(pkt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketParse);

// --- LDS snapshot store ---------------------------------------------------------
// The write-once/analyze-many claim in numbers: collecting the default bench
// dataset (1200 students unless LOCKDOWN_STUDENTS overrides) vs. loading the
// snapshot of that same dataset. Acceptance floor is a 10x win for the load.

const std::string& SnapshotFixture() {
  static const std::string path = [] {
    const auto file =
        std::filesystem::temp_directory_path() / "lockdown_perf_snapshot.lds";
    const core::StudyConfig cfg = bench::DefaultConfig();
    const auto result = core::MeasurementPipeline::Collect(cfg);
    store::SaveSnapshot(
        file, result,
        store::SnapshotMeta{
            static_cast<std::uint64_t>(cfg.generator.population.num_students),
            cfg.generator.population.seed});
    return file.string();
  }();
  return path;
}

void BM_PipelineCollect(benchmark::State& state) {
  const core::StudyConfig cfg = bench::DefaultConfig();
  for (auto _ : state) {
    const auto result = core::MeasurementPipeline::Collect(cfg);
    benchmark::DoNotOptimize(result.dataset.num_flows());
  }
}
BENCHMARK(BM_PipelineCollect)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SnapshotLoadMmap(benchmark::State& state) {
  const std::string& path = SnapshotFixture();
  for (auto _ : state) {
    const auto snap =
        store::LoadSnapshot(path, {store::LoadMode::kMmap, true});
    benchmark::DoNotOptimize(snap.collection.dataset.num_flows());
  }
}
BENCHMARK(BM_SnapshotLoadMmap)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoadCopy(benchmark::State& state) {
  const std::string& path = SnapshotFixture();
  for (auto _ : state) {
    const auto snap =
        store::LoadSnapshot(path, {store::LoadMode::kCopy, true});
    benchmark::DoNotOptimize(snap.collection.dataset.num_flows());
  }
}
BENCHMARK(BM_SnapshotLoadCopy)->Unit(benchmark::kMillisecond);

void BM_SnapshotSave(benchmark::State& state) {
  const auto loaded = store::LoadSnapshot(SnapshotFixture());
  const auto out =
      std::filesystem::temp_directory_path() / "lockdown_perf_resave.lds";
  for (auto _ : state) {
    store::SaveSnapshot(out, loaded.collection, {});
  }
  std::filesystem::remove(out);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);

void BM_SnapshotVerify(benchmark::State& state) {
  const std::string& path = SnapshotFixture();
  for (auto _ : state) {
    store::VerifySnapshot(path);
  }
}
BENCHMARK(BM_SnapshotVerify)->Unit(benchmark::kMillisecond);

// --- Parallel processing + study -----------------------------------------------
// Process (attribution, anonymization, visitor filter, dataset build) plus
// the full study construction and Figure 1-8 methods at a fixed thread
// count, over one cached set of raw collection inputs. The generator stays
// serial — it stands in for the tap, which the paper's pipeline consumes,
// not produces. Outputs are byte-identical at every thread count (chunk-
// ordered reduction, util/thread_pool.h), so this isolates pure speedup;
// threads=1 runs the serial fallback. Measured wins are hardware-dependent:
// on a single-core host all arguments collapse to the serial path.

const core::RawInputs& SharedRawInputs() {
  static const core::RawInputs inputs = [] {
    const auto dir =
        std::filesystem::temp_directory_path() / "lockdown_perf_rawlogs";
    core::ExportLogs(bench::DefaultConfig(), dir);
    core::RawInputs raw = core::ReadRawInputs(dir);
    std::filesystem::remove_all(dir);
    return raw;
  }();
  return inputs;
}

void BM_ProcessStudyThreads(benchmark::State& state) {
  const core::StudyConfig cfg = bench::DefaultConfig();
  const auto anonymizer = core::MeasurementPipeline::MakeAnonymizer(cfg);
  const core::RawInputs& raw = SharedRawInputs();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = core::MeasurementPipeline::Process(
        raw, anonymizer, cfg.visitor_min_days, threads);
    const core::LockdownStudy study(result.dataset,
                                    world::ServiceCatalog::Default(), threads);
    benchmark::DoNotOptimize(study.ActiveDevicesPerDay());
    benchmark::DoNotOptimize(study.BytesPerDevicePerDay());
    benchmark::DoNotOptimize(study.HourOfWeekVolume());
    benchmark::DoNotOptimize(study.MedianBytesExcludingZoom());
    benchmark::DoNotOptimize(study.ZoomDailyBytes());
    benchmark::DoNotOptimize(study.SwitchGameplayDaily());
    benchmark::DoNotOptimize(study.CategoryVolumes());
    benchmark::DoNotOptimize(study.HeadlineStats());
  }
  state.SetLabel(threads == 1 ? "serial" : std::to_string(threads) + " threads");
}
BENCHMARK(BM_ProcessStudyThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
