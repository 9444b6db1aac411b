// lockdown_cli — command-line front end for the measurement pipeline.
//
// Its commands, flags and exit codes are written down once, in tools/usage.h
// (printed by `lockdown_cli --help`).
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "core/offline.h"
#include "core/study.h"
#include "io/io.h"
#include "obs/obs.h"
#include "snapshot_info.h"
#include "store/snapshot.h"
#include "stream/streaming_study.h"
#include "usage.h"
#include "util/fault.h"
#include "util/memstats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace lockdown;

using cli::kExitBudget;
using cli::kExitCorruptSnapshot;
using cli::kExitIo;
using cli::kExitOk;
using cli::kExitUsage;

struct Options {
  std::string command;
  std::string subcommand;  // for `snapshot <save|info|verify>`
  std::string dir;
  std::string out;   // snapshot target file / fault output dir
  std::string file;  // snapshot input file (positional)
  int students = 400;
  std::uint64_t seed = 2020;
  int threads = 0;  // 0 = LOCKDOWN_THREADS / hardware; 1 = serial
  ingest::IngestOptions ingest;
  double fault_rate = 0.01;
  std::string fault_kind = "mixed";
  bool streaming = false;
  bool compress = false;  // snapshot save: columnar-coded flow sections
  std::size_t memory_budget = stream::StreamingOptions{}.memory_budget_bytes;
  std::string metrics_out;  // --metrics-out FILE (obs metrics JSON at exit)
  std::string trace_out;    // --trace-out FILE (Chrome trace JSON at exit)
  std::string io_crash_at;  // --io-crash-at POINT (crash-harness hook)
  bool help = false;
};

void Usage() { std::cerr << cli::UsageText(); }

/// The whole of `text` as a T: a partial parse ("20x"), overflow or an empty
/// value is nullopt, where atoi/atof would have guessed.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A rate flag's value: finite and in [0, 1].
std::optional<double> ParseRate(std::string_view text) {
  const std::optional<double> rate = ParseNumber<double>(text);
  if (!rate || !std::isfinite(*rate) || *rate < 0 || *rate > 1) return std::nullopt;
  return rate;
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  if (argc < 2) return false;
  opts.command = argv[1];
  if (opts.command == "--help" || opts.command == "-h" ||
      opts.command == "help") {
    opts.help = true;
    return true;
  }
  int first_flag = 2;
  if (opts.command == "snapshot") {
    if (argc < 3) return false;
    // A flag in the subcommand's place (`snapshot --help`) is a flag.
    if (!std::string_view(argv[2]).starts_with('-')) {
      opts.subcommand = argv[2];
      first_flag = 3;
    }
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const cli::FlagRow* row = cli::FindFlag(arg == "-h" ? "--help" : arg);
    if (row == nullptr) {
      if (!arg.starts_with("--") && opts.command == "snapshot" &&
          opts.file.empty()) {
        opts.file = arg;
        continue;
      }
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
    std::string_view v;
    if (!row->value.empty()) {
      if (i + 1 == argc) {
        std::cerr << arg << " wants " << row->value << ", got no value\n";
        return false;
      }
      v = argv[++i];
    }
    const auto bad_value = [&](std::string_view want) {
      std::cerr << arg << " wants " << want << ", got: " << v << "\n";
      return false;
    };
    switch (row->flag) {
      case cli::Flag::kCompress:
        opts.compress = true;
        break;
      case cli::Flag::kOut:
        opts.out = v;
        // simulate's --out names the directory everything else calls --logs.
        if (opts.command == "simulate") opts.dir = v;
        break;
      case cli::Flag::kLogs:
        opts.dir = v;
        break;
      case cli::Flag::kStudents: {
        const auto students = ParseNumber<int>(v);
        if (!students || *students <= 0) return bad_value("a positive integer");
        opts.students = *students;
        break;
      }
      case cli::Flag::kSeed: {
        const auto seed = ParseNumber<std::uint64_t>(v);
        if (!seed) return bad_value("an unsigned 64-bit integer");
        opts.seed = *seed;
        break;
      }
      case cli::Flag::kThreads: {
        const auto threads = ParseNumber<int>(v);
        if (!threads || *threads < 0 || *threads > util::kMaxThreads) {
          return bad_value("an integer in [0, " +
                           std::to_string(util::kMaxThreads) + "]");
        }
        opts.threads = *threads;
        break;
      }
      case cli::Flag::kIngestMode: {
        const auto mode = ingest::ParseMode(v);
        if (!mode) {
          std::cerr << "--ingest-mode must be strict or tolerant, got: " << v << "\n";
          return false;
        }
        opts.ingest.mode = *mode;
        break;
      }
      case cli::Flag::kMaxErrorRate: {
        const auto rate = ParseRate(v);
        if (!rate) return bad_value("a number in [0, 1]");
        opts.ingest.max_error_rate = *rate;
        break;
      }
      case cli::Flag::kQuarantineDir:
        opts.ingest.quarantine_dir = v;
        break;
      case cli::Flag::kRate: {
        const auto rate = ParseRate(v);
        if (!rate) return bad_value("a number in [0, 1]");
        opts.fault_rate = *rate;
        break;
      }
      case cli::Flag::kKind:
        opts.fault_kind = v;
        break;
      case cli::Flag::kStreaming:
        opts.streaming = true;
        break;
      case cli::Flag::kMemoryBudget: {
        const auto bytes = util::ParseByteSize(v);
        if (!bytes) return bad_value("a byte size like 33554432, 64M or 2G");
        opts.memory_budget = *bytes;
        opts.streaming = true;  // a budget only means anything when streaming
        break;
      }
      case cli::Flag::kMetricsOut:
        opts.metrics_out = v;
        break;
      case cli::Flag::kTraceOut:
        opts.trace_out = v;
        break;
      case cli::Flag::kIoCrashAt:
        opts.io_crash_at = v;
        break;
      case cli::Flag::kHelp:
        opts.help = true;
        return true;
    }
  }
  return true;
}

core::StudyConfig ConfigFrom(const Options& opts) {
  core::StudyConfig cfg = core::StudyConfig::Small(opts.students, opts.seed);
  cfg.threads = opts.threads;
  return cfg;
}

/// The data funnel, then the headline statistics.
void PrintHeadlineTable(const core::CollectionStats& stats,
                        const core::LockdownStudy::Headline& h,
                        const core::LockdownStudy::SwitchCounts& sw) {
  core::PrintFunnel(stats, std::cout);
  std::cout << "\n";
  util::TablePrinter table({"statistic", "value"});
  table.AddRow({"peak active devices", std::to_string(h.peak_active_devices)});
  table.AddRow({"trough active devices", std::to_string(h.trough_active_devices)});
  table.AddRow({"post-shutdown users", std::to_string(h.post_shutdown_users)});
  table.AddRow({"traffic increase Feb->Apr/May",
                util::FormatDouble(100 * h.traffic_increase, 0) + "%"});
  table.AddRow({"distinct-site increase",
                util::FormatDouble(100 * h.distinct_sites_increase, 0) + "%"});
  table.AddRow({"international devices",
                std::to_string(h.international_devices) + " (" +
                    util::FormatDouble(100 * h.international_share, 1) + "%)"});
  table.AddRow({"switches feb / post / new",
                std::to_string(sw.active_february) + " / " +
                    std::to_string(sw.active_post_shutdown) + " / " +
                    std::to_string(sw.new_in_april_may)});
  table.Print(std::cout);
}

void PrintPeakRss() {
  std::cout << "peak RSS: " << util::FormatByteSize(util::PeakRssBytes())
            << "\n";
}

void PrintHeadline(const core::CollectionResult& collection, int threads) {
  const core::LockdownStudy study(collection.dataset,
                                  world::ServiceCatalog::Default(), threads);
  PrintHeadlineTable(collection.stats, study.HeadlineStats(), study.CountSwitches());
}

/// The streaming counterpart of PrintHeadline: same figure table, produced
/// by the bounded-memory engine, followed by its accuracy report.
void PrintStreamingStudy(const core::CollectionResult& collection,
                         const Options& opts) {
  stream::StreamingOptions streaming;
  streaming.memory_budget_bytes = opts.memory_budget;
  streaming.threads = opts.threads;
  const stream::StreamingStudy study(collection.dataset,
                                     world::ServiceCatalog::Default(),
                                     streaming);
  PrintHeadlineTable(collection.stats, study.HeadlineStats(), study.CountSwitches());
  const stream::StreamingStudy::AccuracyReport report = study.Accuracy();
  std::cout << "\n";
  util::TablePrinter table({"accuracy", "value"});
  table.AddRow({"sketch state",
                util::FormatByteSize(report.state_bytes) + " of " +
                    util::FormatByteSize(report.budget_bytes) + " budget"});
  table.AddRow({"HLL precision",
                "p=" + std::to_string(report.hll_precision) + " (rse " +
                    util::FormatDouble(
                        100 * report.hll_relative_standard_error, 2) +
                    "%)"});
  table.AddRow({"count-min",
                "eps " + util::FormatDouble(100 * report.cms_epsilon, 4) +
                    "% of " + util::FormatByteSize(report.cms_total_bytes) +
                    ", delta " + util::FormatDouble(report.cms_delta, 3)});
  table.AddRow({"reservoirs",
                "k=" + std::to_string(report.reservoir_capacity) +
                    (report.reservoirs_exact ? " (exact: nothing evicted)"
                                             : " (sampled)")});
  table.Print(std::cout);
}

/// Prints per-file ingest accounting after a TSV-path collect/analyze run.
void PrintIngestSummary(const core::IngestSummary& summary,
                        const ingest::IngestOptions& options) {
  const ingest::IngestReport total = summary.Total();
  std::cout << "ingest (" << ingest::ToString(options.mode) << " mode";
  if (options.mode == ingest::Mode::kTolerant) {
    std::cout << ", budget " << util::FormatDouble(100 * options.max_error_rate, 2)
              << "%";
  }
  std::cout << "):\n";
  for (const ingest::IngestReport* r :
       {&summary.conn, &summary.dhcp, &summary.dns, &summary.ua}) {
    std::cout << "  " << r->Summary() << "\n";
    if (!r->quarantine_file.empty()) {
      std::cout << "    quarantined -> " << r->quarantine_file.string() << "\n";
    }
  }
  if (total.rejected > 0) {
    std::cout << "  total rejected: " << total.rejected << " of "
              << total.lines_total << " lines ("
              << util::FormatDouble(100 * total.error_rate(), 2) << "%)\n";
  }
}

int RunSimulate(const Options& opts) {
  if (opts.dir.empty()) {
    std::cerr << "simulate requires --out DIR\n";
    return kExitUsage;
  }
  std::cout << "simulating " << opts.students << " students (seed " << opts.seed
            << ") -> " << opts.dir << "\n";
  core::ExportLogs(ConfigFrom(opts), opts.dir);
  for (const char* name : {core::LogFiles::kConn, core::LogFiles::kDhcp,
                           core::LogFiles::kDns, core::LogFiles::kUa}) {
    const auto path = std::filesystem::path(opts.dir) / name;
    std::cout << "  " << path.string() << "  ("
              << std::filesystem::file_size(path) / 1024 << " KiB)\n";
  }
  return 0;
}

// --seed must match the export's: it derives the anonymization key, and a
// different key still processes but gives unlinkable pseudonyms.
int RunAnalyze(const Options& opts) {
  if (opts.dir.empty()) {
    std::cerr << "analyze requires --logs DIR\n";
    return kExitUsage;
  }
  const bool tolerant = opts.ingest.mode == ingest::Mode::kTolerant;
  const auto snapshot =
      std::filesystem::path(opts.dir) / core::LogFiles::kSnapshot;
  if (std::filesystem::exists(snapshot)) {
    std::cout << "loading snapshot " << snapshot.string() << " (LDS fast path)\n";
    try {
      store::LoadOptions load;
      load.salvage = tolerant;
      auto snap = store::LoadSnapshot(snapshot, load);
      for (const std::string& w : snap.warnings) {
        std::cerr << "salvage: " << w << "\n";
      }
      PrintHeadline(snap.collection, opts.threads);
      return kExitOk;
    } catch (const store::Error& e) {
      // Fallback order: LDS fast path -> TSV re-processing. Only tolerant
      // mode may fall back, and only when the TSV logs are actually there.
      const bool tsv_available = std::filesystem::exists(
          std::filesystem::path(opts.dir) / core::LogFiles::kConn);
      if (!tolerant || !tsv_available) {
        std::cerr << "error: corrupt snapshot: " << e.what() << "\n";
        if (!tolerant && tsv_available) {
          std::cerr << "hint: rerun with --ingest-mode tolerant to fall back "
                       "to the TSV logs\n";
        }
        return kExitCorruptSnapshot;
      }
      std::cerr << "salvage: corrupt snapshot (" << e.what()
                << "): falling back to the TSV logs\n";
    }
  }
  std::cout << "processing logs from " << opts.dir << "\n";
  core::IngestSummary summary;
  const auto collection =
      core::CollectFromLogs(opts.dir, ConfigFrom(opts), opts.ingest, &summary);
  PrintIngestSummary(summary, opts.ingest);
  PrintHeadline(collection, opts.threads);
  return kExitOk;
}

// --- fault -------------------------------------------------------------------

int RunFault(const Options& opts) {
  if (opts.dir.empty() || opts.out.empty()) {
    std::cerr << "fault requires --logs DIR and --out DIR\n";
    return kExitUsage;
  }
  util::FaultKind kind = util::FaultKind::kMixed;
  bool known = false;
  for (int k = 0; k < util::kNumFaultKinds; ++k) {
    if (opts.fault_kind == util::ToString(static_cast<util::FaultKind>(k))) {
      kind = static_cast<util::FaultKind>(k);
      known = true;
    }
  }
  if (!known) {
    std::cerr << "unknown --kind " << opts.fault_kind
              << " (want truncate_tail|bit_flip|drop_line|duplicate_line|"
                 "splice_garbage|mixed)\n";
    return kExitUsage;
  }
  const util::FaultInjector injector({opts.seed, opts.fault_rate});
  std::filesystem::create_directories(opts.out);
  for (const char* name : {core::LogFiles::kConn, core::LogFiles::kDhcp,
                           core::LogFiles::kDns, core::LogFiles::kUa}) {
    const auto src = std::filesystem::path(opts.dir) / name;
    const auto dst = std::filesystem::path(opts.out) / name;
    std::ifstream in(src, std::ios::binary);
    if (!in) throw ingest::IoError(src, "open", errno);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) throw ingest::IoError(src, "read", errno);
    const std::string faulted = injector.Apply(buf.str(), kind);
    std::ofstream out(dst, std::ios::binary);
    out << faulted;
    out.flush();
    if (!out) throw ingest::IoError(dst, "write", errno);
    std::cout << "  " << dst.string() << "  (" << util::ToString(kind)
              << ", seed " << opts.seed << ", rate " << opts.fault_rate << ", "
              << buf.str().size() << " -> " << faulted.size() << " bytes)\n";
  }
  return kExitOk;
}

// --- snapshot save | info | verify -------------------------------------------

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int RunSnapshotSave(const Options& opts) {
  if (opts.out.empty()) {
    std::cerr << "snapshot save requires --out FILE\n";
    return kExitUsage;
  }
  for (const std::filesystem::path& stale : store::SweepOrphanTmpFiles(opts.out)) {
    std::cout << "swept stale tmp file " << stale.string() << "\n";
  }
  core::CollectionResult collection;
  store::SnapshotMeta meta;
  if (!opts.dir.empty()) {
    std::cout << "processing logs from " << opts.dir << "\n";
    core::IngestSummary summary;
    collection =
        core::CollectFromLogs(opts.dir, ConfigFrom(opts), opts.ingest, &summary);
    PrintIngestSummary(summary, opts.ingest);
  } else {
    std::cout << "simulating " << opts.students << " students (seed "
              << opts.seed << ")\n";
    collection = core::MeasurementPipeline::Collect(ConfigFrom(opts));
    meta.num_students = static_cast<std::uint64_t>(opts.students);
    meta.seed = opts.seed;
  }
  const auto t0 = std::chrono::steady_clock::now();
  store::SaveSnapshot(opts.out, collection, meta, {.compress = opts.compress});
  std::cout << "wrote " << opts.out << (opts.compress ? " (compressed)" : "")
            << "  ("
            << std::filesystem::file_size(opts.out) / 1024 << " KiB, "
            << collection.dataset.num_flows() << " flows, "
            << collection.dataset.num_devices() << " devices, "
            << util::FormatDouble(MsSince(t0), 1) << " ms)\n";
  return 0;
}

int RunSnapshotInfo(const Options& opts) {
  if (opts.file.empty()) {
    std::cerr << "snapshot info requires a FILE argument\n";
    return kExitUsage;
  }
  const store::SnapshotInfo info = store::InspectSnapshot(opts.file);
  cli::RenderSnapshotHeader(info, std::cout);
  std::cout << "\n";
  cli::RenderSectionTable(info, std::cout);
  return 0;
}

int RunSnapshotVerify(const Options& opts) {
  if (opts.file.empty()) {
    std::cerr << "snapshot verify requires a FILE argument\n";
    return kExitUsage;
  }
  for (const std::filesystem::path& stale : store::FindOrphanTmpFiles(opts.file)) {
    std::cerr << "warning: stale tmp file: " << stale.string() << "\n";
  }
  const auto t0 = std::chrono::steady_clock::now();
  store::VerifySnapshot(opts.file);  // throws on any problem -> exit 4 in main
  const store::SnapshotInfo info = store::InspectSnapshot(opts.file);
  std::cout << opts.file << ": OK (" << info.num_flows << " flows, "
            << info.num_devices << " devices, all checksums valid, "
            << util::FormatDouble(MsSince(t0), 1) << " ms)\n";
  return 0;
}

int RunSnapshot(const Options& opts) {
  if (opts.subcommand == "save") return RunSnapshotSave(opts);
  if (opts.subcommand == "info") return RunSnapshotInfo(opts);
  if (opts.subcommand == "verify") return RunSnapshotVerify(opts);
  Usage();
  return kExitUsage;
}

int RunStudy(const Options& opts) {
  std::cout << "simulating " << opts.students << " students (seed " << opts.seed
            << ")\n";
  const auto collection = core::MeasurementPipeline::Collect(ConfigFrom(opts));
  if (opts.streaming) {
    std::cout << "streaming study (memory budget "
              << util::FormatByteSize(opts.memory_budget) << ")\n";
    PrintStreamingStudy(collection, opts);
  } else {
    PrintHeadline(collection, opts.threads);
  }
  PrintPeakRss();
  return 0;
}

int RunCatalog() {
  util::TablePrinter table({"service", "category", "country", "block", "flags"});
  for (const world::Service& svc : world::ServiceCatalog::Default().services()) {
    std::string flags;
    if (svc.is_cdn) flags += "cdn ";
    if (svc.tap_excluded) flags += "tap-excluded ";
    if (svc.dns_less) flags += "dns-less ";
    table.AddRow({svc.name, world::ToString(svc.category), svc.country,
                  svc.block.ToString(), flags});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    Usage();
    return kExitUsage;
  }
  if (opts.help) {
    std::cout << cli::UsageText();
    return kExitOk;
  }
  // Env first, explicit flags after, so --metrics-out/--trace-out win over
  // LOCKDOWN_METRICS/LOCKDOWN_TRACE. Output files are written at exit.
  obs::ConfigureFromEnv();
  if (!opts.metrics_out.empty()) obs::EnableMetricsOutput(opts.metrics_out);
  if (!opts.trace_out.empty()) obs::EnableTraceOutput(opts.trace_out);
  if (const std::string io_err = io::ConfigureFromEnv(); !io_err.empty()) {
    std::cerr << "error: " << io_err << "\n";
    return kExitUsage;
  }
  if (!opts.io_crash_at.empty() && !io::ArmCrashPoint(opts.io_crash_at)) {
    std::cerr << "error: --io-crash-at: unknown crash point '"
              << opts.io_crash_at << "' (see src/io/crash_points.h)\n";
    return kExitUsage;
  }
  try {
    int rc = kExitUsage;
    bool handled = true;
    if (opts.command == "simulate") rc = RunSimulate(opts);
    else if (opts.command == "analyze") rc = RunAnalyze(opts);
    else if (opts.command == "study") rc = RunStudy(opts);
    else if (opts.command == "snapshot") rc = RunSnapshot(opts);
    else if (opts.command == "fault") rc = RunFault(opts);
    else if (opts.command == "catalog") rc = RunCatalog();
    else handled = false;
    if (handled) {
      util::PublishRssGauges();
      return rc;
    }
  } catch (const ingest::BudgetError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitBudget;
  } catch (const ingest::IoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitIo;
  } catch (const io::IoError& e) {
    // The shim already retried what was transient; what reaches here is a
    // permanent IO failure (injected or real).
    std::cerr << "error: " << e.what() << "\n";
    return kExitIo;
  } catch (const std::filesystem::filesystem_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitIo;
  } catch (const store::Error& e) {
    // Snapshot commands (info/verify/save) on a corrupt file; analyze maps
    // its own fallback-aware case to kExitCorruptSnapshot before this.
    std::cerr << "error: " << e.what() << "\n";
    return kExitCorruptSnapshot;
  } catch (const std::invalid_argument& e) {
    // e.g. a --memory-budget below the streaming engine's floor.
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitIo;
  }
  Usage();
  return kExitUsage;
}
