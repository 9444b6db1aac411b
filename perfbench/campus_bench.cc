// Campus benchmark: one closed loop of batch jobs over a named workload.
//
//   perfbench_campus --workload campus_e2e|snapshot_figures|logs_ingest
//                    --seed N --seconds S --trace 0|1 [--work-dir DIR]
//                    [--source-rev REV] [--expect-digest HEX]
//                    [--digest-log FILE]
//
// Each workload sets up, then runs one job at a time in this process for
// --seconds in total (at least one job), at 1200 students. A job goes
// from its input (the simulated tap, a snapshot on disk, or Zeek-style logs
// on disk) to the complete figure set. Every layer call is a span of the
// benchmark's own recorder (span_recorder.h); nothing inside src/ is touched.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) run one untraced job for reference, then split each job into
// its layer calls, turn on the program's obs registry, replay the
// attribution layers, rerun processing and the study on every hardware
// thread, and report the per-layer metrics plus a Chrome trace in the work
// directory.
//
// Every job is checked: the figure digest (a hash of the canonical figure
// rendering with the tap-exclusion count zeroed, which is 0 by contract on
// the log path) must repeat across jobs, survive the compressed snapshot
// round trip, and match the digest other workloads recorded for the same
// seed; the flow and User-Agent funnels must add up; streaming figures must
// stay within their published bounds against batch. A job that throws or
// breaches a check counts as failed.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "host" JSON line describing the machine and build.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/offline.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "dhcp/normalizer.h"
#include "dns/mapper.h"
#include "flow/assembler.h"
#include "obs/obs.h"
#include "privacy/anonymizer.h"
#include "privacy/visitor_filter.h"
#include "sim/generator.h"
#include "span_recorder.h"
#include "store/snapshot.h"
#include "stream/streaming_study.h"
#include "tests/core/figure_render.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "world/catalog.h"

namespace {

using namespace lockdown;
namespace fs = std::filesystem;
using perfbench::SpanRecorder;
using Scope = SpanRecorder::Scope;
using Metrics = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"job_s", "s"},
    {"flows_per_s", "flows/s"},
    {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

// The figure methods the canonical rendering covers, in rendering order.
constexpr const char* kFigures[] = {
    "fig1_active_devices", "fig2_bytes_per_device", "fig3_hour_of_week",
    "fig4_population_split", "fig5_zoom_daily", "fig6_social", "fig7_steam",
    "fig8_switch_daily", "fig8_switch_counts", "categories", "diurnal",
    "headline",
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.busy_s", "s"},
    {"sim.tap_events", "count"},
    {"sim.tap_excluded", "count"},
    {"flow.busy_s", "s"},
    {"flow.records", "count"},
    {"ingest.busy_s", "s"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.bytes_read", "bytes"},
    {"ingest.lines_kept", "count"},
    {"ingest.lines_rejected", "count"},
    {"dhcp.index_build_s", "s"},
    {"dhcp.lookup_s", "s"},
    {"dhcp.hit_ratio", "ratio"},
    {"dns.index_build_s", "s"},
    {"dns.lookup_s", "s"},
    {"dns.hit_ratio", "ratio"},
    {"privacy.anonymize_s", "s"},
    {"privacy.visitor_filter_s", "s"},
    {"privacy.devices_observed", "count"},
    {"privacy.devices_retained", "count"},
    {"core.process.busy_s", "s"},
    {"core.process.cpu_s", "s"},
    {"core.process.parallelism", "ratio"},
    {"core.process.scaling_1t", "ratio"},
    {"core.process.pass1_s", "s"},
    {"core.process.pass2_s", "s"},
    {"core.process.pass3_s", "s"},
    {"core.process.unspanned_s", "s"},
    {"core.study.census_s", "s"},
    {"core.study.figures_s", "s"},
    {"core.study.cpu_s", "s"},
    {"core.study.parallelism", "ratio"},
    {"core.study.scaling_1t", "ratio"},
    {"core.study.fig1_active_devices_s", "s"},
    {"core.study.fig2_bytes_per_device_s", "s"},
    {"core.study.fig3_hour_of_week_s", "s"},
    {"core.study.fig4_population_split_s", "s"},
    {"core.study.fig5_zoom_daily_s", "s"},
    {"core.study.fig6_social_s", "s"},
    {"core.study.fig7_steam_s", "s"},
    {"core.study.fig8_switch_daily_s", "s"},
    {"core.study.fig8_switch_counts_s", "s"},
    {"core.study.categories_s", "s"},
    {"core.study.diurnal_s", "s"},
    {"core.study.headline_s", "s"},
    {"query.build_columns_s", "s"},
    {"stream.busy_s", "s"},
    {"stream.cpu_s", "s"},
    {"stream.state_bytes", "bytes"},
    {"stream.reservoirs_exact", "bool"},
    {"sketch.reservoir_overflow_offers", "count"},
    {"store.save_s", "s"},
    {"store.bytes_written", "bytes"},
    {"store.fsync_s", "s"},
    {"store.load_s", "s"},
    {"store.crc_s", "s"},
    {"store.verify_s", "s"},
    {"thread_pool.chunks", "count"},
    {"thread_pool.lane_busy_s", "s"},
    {"mem.hwm_after_capture_mib", "MiB"},
    {"mem.hwm_after_process_mib", "MiB"},
    {"mem.hwm_after_study_mib", "MiB"},
    {"mem.hwm_after_store_mib", "MiB"},
    {"funnel.raw_flows", "count"},
    {"funnel.tap_excluded", "count"},
    {"funnel.unattributed", "count"},
    {"funnel.visitor_flows", "count"},
    {"funnel.kept_flows", "count"},
    {"funnel.devices_observed", "count"},
    {"funnel.devices_retained", "count"},
    {"funnel.ua_sightings", "count"},
    {"trace.overhead_ratio", "ratio"},
};

// Jobs run the program's thread pools at one lane. The host's CPU allotment
// swings between about one and four cores (the host line's measured
// effective parallelism); at nproc lanes that swing moved snapshot_figures
// job_s by over 30% between runs, while one lane is unaffected. Traced runs
// measure the same layers on every hardware thread for the scaling metrics.
constexpr int kJobThreads = 1;

// The ROADMAP's bench scale; every workload uses it, so that their figure
// digests can be compared.
constexpr int kStudents = 1200;

// --- Small utilities ----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Keeps a figure result observable so the call cannot be optimized away.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Process VmHWM in MiB, from /proc/self/status (0 when unavailable). Unlike
/// util::PeakRssBytes (getrusage), it can be reset between phases.
double HwmMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS (Linux clear_refs "5"); a no-op where the
/// kernel does not support it, in which case the high-water mark simply
/// keeps covering everything since process start. Free heap memory is
/// returned to the system first, so the new mark starts from what is live
/// rather than from what the allocator kept of earlier phases.
void ResetHwm() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// Hash of the canonical rendering of every figure, with the tap-exclusion
/// count zeroed: the only field that legitimately differs between the live
/// path and the log path, where it is 0 by contract.
std::string FigureDigest(core::CollectionResult& collection,
                         const core::LockdownStudy& study) {
  const std::uint64_t tap_excluded = collection.stats.tap_excluded;
  collection.stats.tap_excluded = 0;
  const std::uint64_t hash = util::Fnv1a64(core::testing::RenderFigures(collection, study));
  collection.stats.tap_excluded = tap_excluded;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

/// Counters and histogram sums of the program's obs registry, by name.
Metrics ObsTotals() {
  Metrics m;
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  for (const auto& c : snap.counters) m[c.name] = static_cast<double>(c.value);
  for (const auto& h : snap.histograms) m[h.name] = static_cast<double>(h.sum);
  return m;
}

/// Spins `threads` CPU-bound threads for a fixed wall interval and returns
/// the CPU seconds they got per wall second: the parallelism the host
/// actually grants, which on a shared machine is below nproc.
double EffectiveParallelism(int threads) {
  std::atomic<bool> stop{false};
  std::vector<double> cpu(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&stop, &cpu, t] {
      volatile std::uint64_t x = 0;
      while (!stop.load(std::memory_order_relaxed)) x = x + 1;
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      cpu[static_cast<std::size_t>(t)] =
          static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop = true;
  for (auto& th : pool) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  double total = 0.0;
  for (const double c : cpu) total += c;
  return total / wall;
}

// --- Options ------------------------------------------------------------------

enum class Workload { kCampusE2e, kSnapshotFigures, kLogsIngest };

struct Options {
  Workload workload = Workload::kCampusE2e;
  std::string workload_name;
  std::uint64_t seed = 2020;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/run";
  std::string source_rev = "unknown";
  std::string expect_digest;
  fs::path digest_log;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_campus: %s\nusage: perfbench_campus --workload "
               "campus_e2e|snapshot_figures|logs_ingest --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--source-rev REV] "
               "[--expect-digest HEX] [--digest-log FILE]\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T ParseNumber(const std::string& flag, const std::string& text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    Usage("invalid value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      o.workload_name = value;
      if (value == "campus_e2e") {
        o.workload = Workload::kCampusE2e;
      } else if (value == "snapshot_figures") {
        o.workload = Workload::kSnapshotFigures;
      } else if (value == "logs_ingest") {
        o.workload = Workload::kLogsIngest;
      } else {
        Usage("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      o.seed = ParseNumber<std::uint64_t>(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      o.seconds = ParseNumber<int>(flag, value, 1, 600);
    } else if (flag == "--trace") {
      o.trace = ParseNumber<int>(flag, value, 0, 1) == 1;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--source-rev") {
      o.source_rev = value;
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else if (flag == "--digest-log") {
      o.digest_log = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}


// --- Checks -------------------------------------------------------------------

/// Funnel identities: every raw flow is kept, dropped as a visitor's, or
/// unattributed; every UA record lands in exactly one UA counter.
void CheckFunnel(const core::CollectionResult& c, std::optional<std::uint64_t> ua_log,
                 std::vector<std::string>& failures) {
  const core::CollectionStats& st = c.stats;
  const std::uint64_t kept = c.dataset.num_flows();
  if (st.raw_flows != kept + st.visitor_flows + st.unattributed) {
    failures.push_back("funnel: raw " + std::to_string(st.raw_flows) + " != kept " +
                       std::to_string(kept) + " + visitor " +
                       std::to_string(st.visitor_flows) + " + unattributed " +
                       std::to_string(st.unattributed));
  }
  if (st.devices_retained > st.devices_observed) {
    failures.push_back("funnel: more devices retained than observed");
  }
  if (ua_log && st.ua_sightings + st.ua_unattributed + st.ua_visitor_dropped != *ua_log) {
    failures.push_back("funnel: UA counters do not sum to the UA log (" +
                       std::to_string(*ua_log) + " records)");
  }
}

/// DESIGN.md §9 bounds of the streaming engine against batch: HLL Figure 1
/// within 4 standard errors, count-min never undercounting a domain.
void CheckStreamingBounds(const core::Dataset& dataset, const core::LockdownStudy& batch,
                          const stream::StreamingStudy& streaming,
                          std::vector<std::string>& failures) {
  const auto report = streaming.Accuracy();
  const double rse = report.hll_relative_standard_error;
  const auto exact = batch.ActiveDevicesPerDay();
  const auto est = streaming.ActiveDevicesPerDay();
  if (exact.size() != est.size()) {
    failures.push_back("stream: figure 1 row count differs from batch");
    return;
  }
  for (std::size_t d = 0; d < exact.size(); ++d) {
    for (std::size_t c = 0; c < exact[d].by_class.size(); ++c) {
      const double truth = exact[d].by_class[c];
      if (std::abs(est[d].by_class[c] - truth) > 4.0 * rse * truth + 1.0) {
        failures.push_back("stream: figure 1 day " + std::to_string(d) + " class " +
                           std::to_string(c) + " outside 4 sigma");
      }
    }
    const double total = exact[d].total;
    if (std::abs(est[d].total - total) > 4.0 * rse * total + 2.0) {
      failures.push_back("stream: figure 1 day " + std::to_string(d) +
                         " total outside 4 sigma");
    }
  }
  std::unordered_map<core::DomainId, std::uint64_t> domain_bytes;
  std::uint64_t total_bytes = 0;
  for (const core::Flow& f : dataset.flows()) {
    if (f.domain == core::kNoDomain) continue;
    domain_bytes[f.domain] += f.total_bytes();
    total_bytes += f.total_bytes();
  }
  if (report.cms_total_bytes != total_bytes) {
    failures.push_back("stream: count-min absorbed a different byte total");
  }
  for (const auto& [domain, bytes] : domain_bytes) {
    if (streaming.EstimateDomainBytes(domain) < bytes) {
      failures.push_back("stream: count-min undercounted domain " + std::to_string(domain));
      break;
    }
  }
}

// --- Jobs ---------------------------------------------------------------------

struct JobOutcome {
  double seconds = 0.0;
  std::uint64_t raw_flows = 0;
  std::string digest;
  std::vector<std::string> failures;
};

/// Calls every figure method the canonical rendering covers, one span each.
template <typename Study>
void AllFigures(const Study& study, SpanRecorder& rec, const std::string& prefix) {
  const auto figure = [&](const char* name, auto&& call) {
    const Scope s(rec, prefix + "." + name);
    call();
  };
  figure(kFigures[0], [&] { Keep(study.ActiveDevicesPerDay()); });
  figure(kFigures[1], [&] { Keep(study.BytesPerDevicePerDay()); });
  figure(kFigures[2], [&] { Keep(study.HourOfWeekVolume()); });
  figure(kFigures[3], [&] { Keep(study.MedianBytesExcludingZoom()); });
  figure(kFigures[4], [&] { Keep(study.ZoomDailyBytes()); });
  figure(kFigures[5], [&] {
    for (int month = 2; month <= 5; ++month) {
      for (const auto app : {apps::SocialApp::kFacebook, apps::SocialApp::kInstagram,
                             apps::SocialApp::kTikTok}) {
        Keep(study.SocialDurations(app, month));
      }
    }
  });
  figure(kFigures[6], [&] {
    for (int month = 2; month <= 5; ++month) Keep(study.SteamUsage(month));
  });
  figure(kFigures[7], [&] { Keep(study.SwitchGameplayDaily()); });
  figure(kFigures[8], [&] { Keep(study.CountSwitches()); });
  figure(kFigures[9], [&] { Keep(study.CategoryVolumes()); });
  figure(kFigures[10], [&] {
    Keep(study.DiurnalShape(0, util::StudyCalendar::NumDays() - 1));
  });
  figure(kFigures[11], [&] { Keep(study.HeadlineStats()); });
}

class Runner {
 public:
  explicit Runner(Options options) : opt_(std::move(options)) {
    cfg_.generator.population.num_students = kStudents;
    cfg_.generator.population.seed = opt_.seed;
    cfg_.threads = kJobThreads;
    run_dir_ = opt_.work_dir / ("run_" + std::to_string(::getpid()));
    fs::create_directories(run_dir_);
  }
  ~Runner() {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  [[nodiscard]] const SpanRecorder& recorder() const { return rec_; }

  /// Traced mode: layer-by-layer jobs, probes, and the obs registry on.
  void SetTracing(bool on) {
    tracing_ = on;
    obs::SetMetricsEnabled(on);
  }

  /// One set-up pass, recorded as a "setup" span of job 0.
  void Setup(std::vector<std::string>& failures);

  JobOutcome RunJob(int id);

  /// Every per-layer metric of a traced job, from its spans, the obs
  /// registry deltas of its steps, and the values noted while it ran.
  [[nodiscard]] Metrics LayerMetrics(int job) const;

 private:
  /// A span plus, when tracing, the obs registry deltas it caused, filed
  /// under (job, name).
  class Step {
   public:
    Step(Runner& runner, std::string name, bool step = true)
        : runner_(runner), name_(std::move(name)) {
      if (runner_.tracing_) before_ = ObsTotals();
      scope_.emplace(runner_.rec_, name_, step);
    }
    ~Step() {
      scope_.reset();
      if (!runner_.tracing_) return;
      Metrics& delta = runner_.obs_[{runner_.rec_.job(), name_}];
      for (const auto& [key, value] : ObsTotals()) delta[key] += value - before_[key];
    }
    Step(const Step&) = delete;
    Step& operator=(const Step&) = delete;

   private:
    Runner& runner_;
    std::string name_;
    Metrics before_;
    std::optional<Scope> scope_;
  };

  void Note(const std::string& name, double value) { notes_[rec_.job()][name] = value; }
  void NoteFunnel(const core::CollectionResult& c);
  [[nodiscard]] double Obs(int job, const std::string& step,
                           const std::string& metric) const;

  core::RawInputs CaptureCampus(std::uint64_t& tap_excluded);
  core::CollectionResult ProcessStep(core::RawInputs inputs,
                                     std::vector<std::string>& failures);
  void ReplayAttribution(const core::RawInputs& inputs, const core::CollectionStats& stats,
                         std::vector<std::string>& failures);
  std::unique_ptr<core::LockdownStudy> StudyStep(const core::Dataset& dataset,
                                                 const std::string& name, int threads,
                                                 bool step);
  void Probes(const core::Dataset& dataset, const fs::path& snapshot);

  JobOutcome CampusJob();
  JobOutcome SnapshotJob();
  JobOutcome LogsJob();

  Options opt_;
  core::StudyConfig cfg_;
  int probe_threads_ = util::ResolveThreadCount(0);
  bool tracing_ = false;
  fs::path run_dir_;
  SpanRecorder rec_;
  std::map<std::pair<int, std::string>, Metrics> obs_;
  std::map<int, Metrics> notes_;
  std::optional<std::uint64_t> setup_ua_log_;
};

double Runner::Obs(int job, const std::string& step, const std::string& metric) const {
  const auto it = obs_.find({job, step});
  if (it == obs_.end()) return 0.0;
  const auto m = it->second.find(metric);
  return m == it->second.end() ? 0.0 : m->second;
}

void Runner::NoteFunnel(const core::CollectionResult& c) {
  const core::CollectionStats& st = c.stats;
  Note("funnel.raw_flows", static_cast<double>(st.raw_flows));
  Note("funnel.tap_excluded", static_cast<double>(st.tap_excluded));
  Note("funnel.unattributed", static_cast<double>(st.unattributed));
  Note("funnel.visitor_flows", static_cast<double>(st.visitor_flows));
  Note("funnel.kept_flows", static_cast<double>(c.dataset.num_flows()));
  Note("funnel.devices_observed", static_cast<double>(st.devices_observed));
  Note("funnel.devices_retained", static_cast<double>(st.devices_retained));
  Note("funnel.ua_sightings", static_cast<double>(st.ua_sightings));
}

/// The tap and the flow assembler, driven through their public interfaces
/// exactly as MeasurementPipeline::Collect drives them. Traced, events are
/// buffered from the generator's sink and fed to the assembler in
/// fixed-size batches, one span per batch, so the generator's share is the
/// "sim" span's self time.
core::RawInputs Runner::CaptureCampus(std::uint64_t& tap_excluded) {
  constexpr std::size_t kBatch = 16384;
  const world::ServiceCatalog& catalog = world::ServiceCatalog::Default();
  core::RawInputs inputs;
  std::uint64_t tap_events = 0;
  tap_excluded = 0;
  {
    const Step step(*this, "sim");
    sim::TrafficGenerator generator(cfg_.generator, catalog);
    flow::Assembler assembler(flow::AssemblerConfig{}, [&inputs](const flow::FlowRecord& r) {
      inputs.flows.push_back(r);
    });
    std::vector<flow::TapEvent> batch;
    if (tracing_) batch.reserve(kBatch);
    const auto flush = [&] {
      const Scope s(rec_, "flow.ingest");
      for (const flow::TapEvent& ev : batch) assembler.Ingest(ev);
      batch.clear();
    };
    generator.Run([&](const flow::TapEvent& ev) {
      ++tap_events;
      // The tap exclusion list (paper §3): these networks are never mirrored.
      const auto svc = catalog.FindByIp(ev.tuple.dst_ip);
      if (svc && catalog.Get(*svc).tap_excluded) {
        ++tap_excluded;
        return;
      }
      if (!tracing_) {
        assembler.Ingest(ev);
        return;
      }
      batch.push_back(ev);
      if (batch.size() == kBatch) flush();
    });
    if (tracing_) flush();
    {
      const Scope s(rec_, "flow.finish");
      assembler.Finish();
    }
    inputs.dhcp_log = generator.dhcp_log();
    inputs.dns_log = generator.dns_log();
    inputs.ua_log.reserve(generator.ua_sightings().size());
    for (const sim::UaSighting& ua : generator.ua_sightings()) {
      inputs.ua_log.push_back(logs::UaRecord{ua.ts, ua.client_ip, std::string(ua.user_agent)});
    }
  }
  Note("sim.tap_events", static_cast<double>(tap_events));
  Note("sim.tap_excluded", static_cast<double>(tap_excluded));
  Note("flow.records", static_cast<double>(inputs.flows.size()));
  Note("mem.hwm_after_capture_mib", HwmMib());
  return inputs;
}

/// Replays raw inputs through the attribution layers' public calls: the
/// DHCP index and lookups, MAC anonymization, the 14-day visitor filter, and
/// the DNS index and lookups for retained flows. The replay must reproduce
/// the pipeline's funnel.
void Runner::ReplayAttribution(const core::RawInputs& inputs,
                               const core::CollectionStats& stats,
                               std::vector<std::string>& failures) {
  const Scope probe(rec_, "probe.replay");
  const std::size_t n = inputs.flows.size();
  const privacy::Anonymizer anonymizer = core::MeasurementPipeline::MakeAnonymizer(cfg_);
  std::vector<std::uint64_t> macs(n, 0);
  std::vector<privacy::DeviceId> ids(n);
  std::optional<dhcp::IpToMacNormalizer> normalizer;
  {
    const Scope s(rec_, "dhcp.index_build");
    normalizer.emplace(inputs.dhcp_log);
  }
  std::uint64_t attributed = 0;
  {
    const Scope s(rec_, "dhcp.lookup");
    for (std::size_t i = 0; i < n; ++i) {
      const auto mac = normalizer->Lookup(inputs.flows[i].client_ip, inputs.flows[i].start);
      if (mac) {
        macs[i] = mac->value();
        ++attributed;
      }
    }
  }
  {
    const Scope s(rec_, "privacy.anonymize");
    for (std::size_t i = 0; i < n; ++i) {
      if (macs[i] != 0) ids[i] = anonymizer.AnonymizeMac(net::MacAddress(macs[i]));
    }
  }
  privacy::VisitorFilter visitors(cfg_.visitor_min_days);
  std::size_t retained = 0;
  {
    const Scope s(rec_, "privacy.visitor_filter");
    for (std::size_t i = 0; i < n; ++i) {
      if (macs[i] != 0) visitors.Observe(ids[i], inputs.flows[i].start);
    }
    retained = visitors.num_retained();
  }
  std::optional<dns::IpToDomainMapper> mapper;
  {
    const Scope s(rec_, "dns.index_build");
    mapper.emplace(inputs.dns_log);
  }
  std::uint64_t kept = 0;
  std::uint64_t named = 0;
  {
    const Scope s(rec_, "dns.lookup");
    for (std::size_t i = 0; i < n; ++i) {
      if (macs[i] == 0 || !visitors.Retained(ids[i])) continue;
      ++kept;
      if (mapper->Lookup(inputs.flows[i].server_ip, inputs.flows[i].start)) ++named;
    }
  }
  Note("dhcp.hit_ratio", n == 0 ? 0.0 : static_cast<double>(attributed) / static_cast<double>(n));
  Note("dns.hit_ratio", kept == 0 ? 0.0 : static_cast<double>(named) / static_cast<double>(kept));
  Note("privacy.devices_observed", static_cast<double>(visitors.num_observed()));
  Note("privacy.devices_retained", static_cast<double>(retained));
  if (attributed != stats.raw_flows - stats.unattributed ||
      visitors.num_observed() != stats.devices_observed || retained != stats.devices_retained ||
      kept != stats.raw_flows - stats.unattributed - stats.visitor_flows) {
    failures.push_back("replay: the attribution replay disagrees with the pipeline funnel");
  }
}

/// MeasurementPipeline::Process as a step. Traced, a run on every hardware
/// thread over a copy of the inputs and the attribution replay go first,
/// outside the job's time, and the memory high-water mark is reset after
/// them.
core::CollectionResult Runner::ProcessStep(core::RawInputs inputs,
                                           std::vector<std::string>& failures) {
  const privacy::Anonymizer anonymizer = core::MeasurementPipeline::MakeAnonymizer(cfg_);
  if (tracing_) {
    core::CollectionStats parallel;
    {
      const Scope probe(rec_, "core.process.nproc");
      parallel = core::MeasurementPipeline::Process(inputs, anonymizer, cfg_.visitor_min_days,
                                                    probe_threads_)
                     .stats;
    }
    ReplayAttribution(inputs, parallel, failures);
    ResetHwm();
  }
  core::CollectionResult result;
  {
    const Step step(*this, "core.process");
    result = core::MeasurementPipeline::Process(std::move(inputs), anonymizer,
                                                cfg_.visitor_min_days, cfg_.threads);
  }
  Note("mem.hwm_after_process_mib", HwmMib());
  return result;
}

std::unique_ptr<core::LockdownStudy> Runner::StudyStep(const core::Dataset& dataset,
                                                       const std::string& name, int threads,
                                                       bool step) {
  std::unique_ptr<core::LockdownStudy> study;
  {
    const Step s(*this, name, step);
    {
      const Scope build(rec_, name + ".build");
      study = std::make_unique<core::LockdownStudy>(dataset, world::ServiceCatalog::Default(),
                                                    threads);
    }
    AllFigures(*study, rec_, name);
  }
  if (step) Note("mem.hwm_after_study_mib", HwmMib());
  return study;
}

/// Traced-only work outside the job's time: the study and every figure on
/// every hardware thread, and a full integrity check of the job's snapshot.
void Runner::Probes(const core::Dataset& dataset, const fs::path& snapshot) {
  if (!tracing_) return;
  Keep(StudyStep(dataset, "core.study.nproc", probe_threads_, /*step=*/false));
  const Scope probe(rec_, "store.verify");
  store::VerifySnapshot(snapshot);
}

void Runner::Setup(std::vector<std::string>& failures) {
  rec_.SetJob(0);
  if (tracing_) ResetHwm();
  const Step setup(*this, "setup");
  {
    // Start-up work every workload pays: building the service catalog.
    const Scope s(rec_, "world.catalog");
    Keep(world::ServiceCatalog(world::DefaultServiceSpecs()));
  }
  switch (opt_.workload) {
    case Workload::kCampusE2e:
      break;
    case Workload::kSnapshotFigures: {
      // Collect once, as MeasurementPipeline::Collect does, and save a raw
      // (zero-copy) v3 snapshot for the jobs to map.
      std::uint64_t tap_excluded = 0;
      core::RawInputs inputs = CaptureCampus(tap_excluded);
      setup_ua_log_ = inputs.ua_log.size();
      core::CollectionResult collection = ProcessStep(std::move(inputs), failures);
      collection.stats.tap_excluded = tap_excluded;
      CheckFunnel(collection, setup_ua_log_, failures);
      const Step save(*this, "store.save");
      store::SaveSnapshot(run_dir_ / "campus.lds", collection,
                          {static_cast<std::uint64_t>(kStudents), opt_.seed});
      break;
    }
    case Workload::kLogsIngest: {
      const Scope s(rec_, "export_logs");
      fs::remove_all(run_dir_ / "logs");
      core::ExportLogs(cfg_, run_dir_ / "logs");
      break;
    }
  }
}

JobOutcome Runner::RunJob(int id) {
  rec_.SetJob(id);
  if (tracing_) ResetHwm();
  JobOutcome out;
  try {
    switch (opt_.workload) {
      case Workload::kCampusE2e:
        out = CampusJob();
        break;
      case Workload::kSnapshotFigures:
        out = SnapshotJob();
        break;
      case Workload::kLogsIngest:
        out = LogsJob();
        break;
    }
  } catch (const std::exception& e) {
    out.failures.push_back(std::string("job threw: ") + e.what());
  }
  out.seconds = rec_.JobSeconds(id);
  return out;
}

/// MeasurementPipeline::Collect -> LockdownStudy + every figure ->
/// compressed snapshot save -> load -> LockdownStudy + every figure again.
JobOutcome Runner::CampusJob() {
  JobOutcome out;
  core::CollectionResult collection;
  std::optional<std::uint64_t> ua_log;
  if (!tracing_) {
    const Step step(*this, "pipeline.collect");
    collection = core::MeasurementPipeline::Collect(cfg_);
  } else {
    std::uint64_t tap_excluded = 0;
    core::RawInputs inputs = CaptureCampus(tap_excluded);
    ua_log = inputs.ua_log.size();
    collection = ProcessStep(std::move(inputs), out.failures);
    collection.stats.tap_excluded = tap_excluded;
  }
  out.raw_flows = collection.stats.raw_flows;
  CheckFunnel(collection, ua_log, out.failures);
  {
    const auto study = StudyStep(collection.dataset, "core.study", cfg_.threads, true);
    out.digest = FigureDigest(collection, *study);
  }

  const fs::path file = run_dir_ / "campus_compressed.lds";
  {
    const Step step(*this, "store.save");
    store::SaveOptions save;
    save.compress = true;
    store::SaveSnapshot(file, collection,
                        {static_cast<std::uint64_t>(kStudents), opt_.seed}, save);
  }
  const std::uint64_t tap_excluded = collection.stats.tap_excluded;
  collection = core::CollectionResult{};
  store::LoadedSnapshot loaded;
  {
    const Step step(*this, "store.load");
    loaded = store::LoadSnapshot(file);
  }
  Note("mem.hwm_after_store_mib", HwmMib());
  const auto study = StudyStep(loaded.collection.dataset, "core.study", cfg_.threads, true);
  const std::string round_trip = FigureDigest(loaded.collection, *study);
  if (round_trip != out.digest) {
    out.failures.push_back("digest changed across the compressed snapshot round trip: " +
                           out.digest + " -> " + round_trip);
  }
  if (loaded.collection.stats.tap_excluded != tap_excluded) {
    out.failures.push_back("the snapshot lost the tap-exclusion count");
  }
  NoteFunnel(loaded.collection);
  Probes(loaded.collection.dataset, file);
  fs::remove(file);
  return out;
}

/// mmap LoadSnapshot -> LockdownStudy + every figure -> StreamingStudy
/// (default budget) + every figure.
JobOutcome Runner::SnapshotJob() {
  JobOutcome out;
  const fs::path file = run_dir_ / "campus.lds";
  store::LoadedSnapshot loaded;
  {
    const Step step(*this, "store.load");
    loaded = store::LoadSnapshot(file, {store::LoadMode::kMmap, true, false});
  }
  Note("mem.hwm_after_store_mib", HwmMib());
  core::CollectionResult& collection = loaded.collection;
  out.raw_flows = collection.stats.raw_flows;
  CheckFunnel(collection, setup_ua_log_, out.failures);
  const auto study = StudyStep(collection.dataset, "core.study", cfg_.threads, true);
  out.digest = FigureDigest(collection, *study);
  {
    std::unique_ptr<stream::StreamingStudy> streaming;
    {
      const Step step(*this, "stream");
      {
        const Scope s(rec_, "stream.build");
        stream::StreamingOptions options;
        options.threads = cfg_.threads;
        streaming = std::make_unique<stream::StreamingStudy>(
            collection.dataset, world::ServiceCatalog::Default(), options);
      }
      AllFigures(*streaming, rec_, "stream");
    }
    const auto report = streaming->Accuracy();
    Note("stream.state_bytes", static_cast<double>(report.state_bytes));
    Note("stream.reservoirs_exact", report.reservoirs_exact ? 1.0 : 0.0);
    CheckStreamingBounds(collection.dataset, *study, *streaming, out.failures);
  }
  NoteFunnel(collection);
  Probes(collection.dataset, file);
  return out;
}

/// Strict CollectFromLogs -> LockdownStudy + every figure.
JobOutcome Runner::LogsJob() {
  JobOutcome out;
  const fs::path dir = run_dir_ / "logs";
  core::IngestSummary summary;
  core::CollectionResult collection;
  if (!tracing_) {
    const Step step(*this, "collect_from_logs");
    collection = core::CollectFromLogs(dir, cfg_, ingest::IngestOptions{}, &summary);
  } else {
    core::RawInputs inputs;
    {
      const Step step(*this, "ingest");
      inputs = core::ReadRawInputs(dir, ingest::IngestOptions{}, &summary);
    }
    Note("mem.hwm_after_capture_mib", HwmMib());
    collection = ProcessStep(std::move(inputs), out.failures);
  }
  const ingest::IngestReport total = summary.Total();
  Note("ingest.lines_kept", static_cast<double>(total.kept));
  Note("ingest.lines_rejected", static_cast<double>(total.rejected));
  if (total.rejected != 0) out.failures.push_back("ingest: strict read rejected lines");
  if (collection.stats.tap_excluded != 0) {
    out.failures.push_back("ingest: tap_excluded must be 0 on the log path");
  }
  out.raw_flows = collection.stats.raw_flows;
  CheckFunnel(collection, summary.ua.kept, out.failures);
  {
    const auto study = StudyStep(collection.dataset, "core.study", cfg_.threads, true);
    out.digest = FigureDigest(collection, *study);
  }
  NoteFunnel(collection);
  if (tracing_) Keep(StudyStep(collection.dataset, "core.study.nproc", probe_threads_, false));
  return out;
}

Metrics Runner::LayerMetrics(int job) const {
  Metrics m;
  for (const MetricSpec& spec : kPerLayer) m[spec.name] = 0.0;
  // Collection (tap, assembler, processing) runs in the set-up of
  // snapshot_figures and inside the job elsewhere; so does the save.
  const int src = opt_.workload == Workload::kSnapshotFigures ? 0 : job;
  for (const int j : {src, job}) {
    const auto it = notes_.find(j);
    if (it == notes_.end()) continue;
    for (const auto& [name, value] : it->second) m[name] = value;
  }
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  m["sim.busy_s"] = rec_.SelfSeconds(src, "sim");
  m["flow.busy_s"] = rec_.Seconds(src, "flow.ingest") + rec_.Seconds(src, "flow.finish");

  const double ingest_s = rec_.Seconds(job, "ingest");
  m["ingest.busy_s"] = ingest_s;
  m["ingest.bytes_read"] = Obs(job, "ingest", "ingest/bytes_read");
  m["ingest.mb_per_s"] = ratio(m["ingest.bytes_read"] / 1e6, ingest_s);

  for (const char* layer : {"dhcp.index_build", "dhcp.lookup", "dns.index_build",
                            "dns.lookup", "privacy.anonymize", "privacy.visitor_filter"}) {
    m[std::string(layer) + "_s"] = rec_.Seconds(src, layer);
  }

  const double process_s = rec_.Seconds(src, "core.process");
  const double pass1 = Obs(src, "core.process", "pipeline/pass1_attribution") / 1e6;
  const double pass2 = Obs(src, "core.process", "pipeline/pass2_retention_dns") / 1e6;
  const double pass3 = Obs(src, "core.process", "pipeline/pass3_assemble") / 1e6;
  const double ua = Obs(src, "core.process", "pipeline/ua_sightings") / 1e6;
  m["core.process.busy_s"] = process_s;
  m["core.process.cpu_s"] = rec_.CpuSeconds(src, "core.process");
  // Jobs run on one thread; parallelism and scaling come from the probe on
  // every hardware thread.
  const double process_nproc_s = rec_.Seconds(src, "core.process.nproc");
  m["core.process.parallelism"] =
      ratio(rec_.CpuSeconds(src, "core.process.nproc"), process_nproc_s);
  m["core.process.scaling_1t"] = ratio(process_s, process_nproc_s);
  m["core.process.pass1_s"] = pass1;
  m["core.process.pass2_s"] = pass2;
  m["core.process.pass3_s"] = pass3;
  m["core.process.unspanned_s"] = process_s > 0.0 ? process_s - pass1 - pass2 - pass3 - ua : 0.0;

  const std::vector<double> studies = rec_.Durations(job, "core.study");
  const double study_s = rec_.Seconds(job, "core.study");
  m["core.study.census_s"] = Obs(job, "core.study", "study/census") / 1e6;
  m["core.study.figures_s"] = study_s - rec_.Seconds(job, "core.study.build");
  m["core.study.cpu_s"] = rec_.CpuSeconds(job, "core.study");
  const double study_nproc_s = rec_.Seconds(job, "core.study.nproc");
  m["core.study.parallelism"] = ratio(rec_.CpuSeconds(job, "core.study.nproc"), study_nproc_s);
  m["core.study.scaling_1t"] =
      ratio(ratio(study_s, static_cast<double>(studies.size())), study_nproc_s);
  for (const char* figure : kFigures) {
    m["core.study." + std::string(figure) + "_s"] =
        rec_.Seconds(job, "core.study." + std::string(figure));
  }
  m["query.build_columns_s"] = Obs(job, "core.study", "query/build_columns") / 1e6;

  m["stream.busy_s"] = rec_.Seconds(job, "stream");
  m["stream.cpu_s"] = rec_.CpuSeconds(job, "stream");
  m["sketch.reservoir_overflow_offers"] = Obs(job, "stream", "sketch/reservoir_overflow_offers");

  const int save_job = opt_.workload == Workload::kSnapshotFigures ? 0 : job;
  m["store.save_s"] = rec_.Seconds(save_job, "store.save");
  m["store.bytes_written"] = Obs(save_job, "store.save", "store/bytes_written");
  m["store.fsync_s"] = Obs(save_job, "store.save", "io/fsync_us") / 1e6;
  m["store.load_s"] = rec_.Seconds(job, "store.load");
  m["store.crc_s"] = Obs(job, "store.load", "store/crc_us") / 1e6;
  m["store.verify_s"] = rec_.Seconds(job, "store.verify");

  // Thread-pool work inside the job's steps (probes excluded).
  for (const auto& [key, delta] : obs_) {
    if (key.first != job) continue;
    bool is_step = false;
    for (const char* step : {"sim", "core.process", "core.study", "stream", "store.save",
                             "store.load", "ingest"}) {
      is_step = is_step || key.second == step;
    }
    if (!is_step) continue;
    const auto chunks = delta.find("thread_pool/chunks");
    const auto busy = delta.find("thread_pool/lane_busy_us");
    if (chunks != delta.end()) m["thread_pool.chunks"] += chunks->second;
    if (busy != delta.end()) m["thread_pool.lane_busy_s"] += busy->second / 1e6;
  }
  return m;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& values, const MetricSpec* specs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name + "\": {\"value\": " +
           JsonNumber(v) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

/// Cross-workload digest check: every run appends "seed rev workload digest"
/// to a log in the work directory; a run whose digest differs from any other
/// workload's for the same seed and source revision fails.
std::string CheckDigestLog(const Options& o, const std::string& digest) {
  if (o.digest_log.empty()) return "";
  const std::string key = std::to_string(o.seed) + " " + o.source_rev + " ";
  std::string conflict;
  {
    std::ifstream in(o.digest_log);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(key, 0) != 0) continue;
      std::istringstream rest(line.substr(key.size()));
      std::string workload;
      std::string other;
      rest >> workload >> other;
      if (other != digest) conflict = workload + " reported " + other;
    }
  }
  std::ofstream out(o.digest_log, std::ios::app);
  out << key << o.workload_name << ' ' << digest << '\n';
  return conflict;
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  {
    std::printf(
        "{\"host\": {\"nproc\": %u, \"effective_parallelism\": %s, \"compiler\": \"%s\", "
        "\"cxx_flags\": \"%s\", \"build_type\": \"%s\", \"source_rev\": \"%s\", "
        "\"workload\": \"%s\", \"seed\": %llu, \"students\": %d, \"job_threads\": %d, "
        "\"probe_threads\": %d, "
        "\"trace\": %d}}\n",
        nproc, JsonNumber(EffectiveParallelism(static_cast<int>(nproc))).c_str(),
        obs::JsonEscape(__VERSION__).c_str(), obs::JsonEscape(PERFBENCH_CXX_FLAGS).c_str(),
        PERFBENCH_BUILD_TYPE, obs::JsonEscape(opt.source_rev).c_str(),
        opt.workload_name.c_str(), static_cast<unsigned long long>(opt.seed), kStudents,
        kJobThreads, util::ResolveThreadCount(0), opt.trace ? 1 : 0);
    std::fflush(stdout);
  }

  Runner runner(opt);
  std::vector<std::string> setup_failures;
  // Set-up is repeated and its median reported, except in traced runs. The
  // heavy set-ups (a full collection) run twice, each followed by half of
  // the job time, so the jobs sample the shared host across the whole run
  // rather than only its last --seconds; the light one runs 25 times up
  // front.
  const bool heavy_setup = opt.workload != Workload::kCampusE2e;
  const int rounds = !opt.trace && heavy_setup ? 2 : 1;
  const int setups_per_round = !opt.trace && !heavy_setup ? 25 : 1;
  runner.SetTracing(opt.trace);

  // Job ids are 1-based positions in `jobs`. A traced run starts with one
  // untraced reference job, for the tracing overhead ratio; it is checked
  // like every job but its time is not reported.
  std::vector<JobOutcome> jobs;
  std::size_t first_measured = 0;
  double measured_s = 0.0;
  double peak_rss_mib = 0.0;
  for (int round = 1; round <= rounds; ++round) {
    for (int i = 0; i < setups_per_round; ++i) runner.Setup(setup_failures);
    // Untraced peak memory covers the jobs, not the set-up.
    ResetHwm();
    if (opt.trace) {
      runner.SetTracing(false);
      jobs.push_back(runner.RunJob(1));
      runner.SetTracing(true);
      first_measured = jobs.size();
    }
    const double until = opt.seconds * round / rounds;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      jobs.push_back(runner.RunJob(static_cast<int>(jobs.size()) + 1));
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (measured_s + elapsed < until);
    measured_s += elapsed;
    peak_rss_mib = std::max(peak_rss_mib, HwmMib());
  }
  const double setup_s = Median(runner.recorder().Durations(0, "setup"));

  // Digest gates: one digest per run, the recorded one for known seeds, and
  // the one other workloads reported for this seed.
  std::string digest = jobs.front().digest;
  std::vector<std::string> run_failures = setup_failures;
  for (const JobOutcome& j : jobs) {
    if (j.digest != digest) run_failures.push_back("jobs of one run disagree on the digest");
  }
  if (!opt.expect_digest.empty() && digest != opt.expect_digest) {
    run_failures.push_back("digest " + digest + " differs from the recorded " +
                           opt.expect_digest);
  }
  if (run_failures.empty() && !digest.empty()) {
    const std::string conflict = CheckDigestLog(opt, digest);
    if (!conflict.empty()) {
      run_failures.push_back("digest " + digest + " differs across workloads: " + conflict);
    }
  }

  int failed = 0;
  std::vector<double> job_s;
  std::vector<double> flows_per_s;
  std::string jobs_json;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& j = jobs[i];
    const bool ok = j.failures.empty() && run_failures.empty();
    failed += ok ? 0 : 1;
    if (i >= first_measured) {
      job_s.push_back(j.seconds);
      flows_per_s.push_back(j.seconds > 0.0 ? static_cast<double>(j.raw_flows) / j.seconds
                                            : 0.0);
    }
    jobs_json += std::string(i == 0 ? "" : ", ") + "{\"s\": " + JsonNumber(j.seconds) +
                 ", \"digest\": \"" + j.digest + "\", \"failures\": " +
                 std::to_string(j.failures.size()) + "}";
    for (const std::string& f : j.failures) {
      std::fprintf(stderr, "perfbench: job %zu failed: %s\n", i + 1, f.c_str());
    }
  }
  for (const std::string& f : run_failures) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", f.c_str());
  }
  std::printf("{\"jobs\": [%s], \"digest\": \"%s\"}\n", jobs_json.c_str(), digest.c_str());

  std::string metrics;
  if (!opt.trace) {
    const Metrics e2e = {{"job_s", Median(job_s)},
                         {"flows_per_s", Median(flows_per_s)},
                         {"peak_rss_mib", peak_rss_mib},
                         {"setup_s", setup_s}};
    metrics = MetricsJson(e2e, kEndToEnd, std::size(kEndToEnd));
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (std::size_t i = first_measured; i < jobs.size(); ++i) {
      for (const auto& [name, value] : runner.LayerMetrics(static_cast<int>(i) + 1)) {
        samples[name].push_back(value);
      }
    }
    Metrics layers;
    for (const auto& [name, values] : samples) layers[name] = Median(values);
    const double reference_s = jobs.front().seconds;
    layers["trace.overhead_ratio"] = reference_s > 0.0 ? Median(job_s) / reference_s : 0.0;
    metrics = MetricsJson(layers, kPerLayer, std::size(kPerLayer));
    const fs::path trace = opt.work_dir / ("trace_" + opt.workload_name + "_seed" +
                                           std::to_string(opt.seed) + ".json");
    std::ofstream out(trace);
    runner.recorder().WriteChromeTrace(out);
    std::fprintf(stderr, "perfbench: wrote %s\n", trace.string().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", jobs.size(), failed, metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
