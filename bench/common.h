// Shared scaffolding for the figure benches: one collected dataset per
// process, scale configurable via LOCKDOWN_STUDENTS (default 1200), seed via
// LOCKDOWN_SEED, processing/study parallelism via LOCKDOWN_THREADS (default
// 0 = all hardware threads; 1 = serial; results are identical either way).
//
// Snapshot cache: when LOCKDOWN_SNAPSHOT=<file.lds> is set, the first bench
// run collects once and writes an LDS snapshot there; every later run (any
// of the figure binaries) mmaps it back in milliseconds instead of
// re-simulating the campus. See src/store and README "snapshot workflow".
//
// Machine-readable results: when LOCKDOWN_BENCH_JSON=<file> is set, every
// bench::Metric() call is collected and the process writes one JSON document
// to <file> at exit ({bench, config, metrics:[{name, value, unit}]}); the
// human tables on stdout are unaffected.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/study.h"
#include "obs/obs.h"
#include "store/snapshot.h"
#include "util/strings.h"

namespace lockdown::bench {

namespace internal {

/// Strict integer env parsing: the entire value must be a base-10 integer in
/// [min_value, max_value]; anything else (garbage, trailing text, negatives
/// where disallowed, overflow) aborts loudly rather than running the whole
/// study on whatever atoi guessed.
template <typename T>
T EnvIntOr(const char* name, T fallback, T min_value, T max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  T value{};
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc() || ptr != end || value < min_value || value > max_value) {
    std::fprintf(stderr, "[bench] invalid %s='%s' (expected an integer in [%s, %s])\n",
                 name, env, std::to_string(min_value).c_str(),
                 std::to_string(max_value).c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace internal

inline core::StudyConfig DefaultConfig() {
  // Every bench funnels through here, so this is the one place the env-var
  // observability hookup (LOCKDOWN_METRICS / LOCKDOWN_TRACE) needs to live.
  obs::ConfigureFromEnv();
  core::StudyConfig cfg;
  cfg.generator.population.num_students =
      internal::EnvIntOr<int>("LOCKDOWN_STUDENTS", 1200, 1, 10'000'000);
  cfg.generator.population.seed = internal::EnvIntOr<std::uint64_t>(
      "LOCKDOWN_SEED", 2020, 0, std::numeric_limits<std::uint64_t>::max());
  // util::ResolveThreadCount would read LOCKDOWN_THREADS itself, but going
  // through EnvIntOr keeps the bench contract: malformed env aborts loudly
  // instead of silently running serial.
  cfg.threads = internal::EnvIntOr<int>("LOCKDOWN_THREADS", 0, 0, 4096);
  return cfg;
}

/// Collects once per process; every figure in a binary reuses the dataset.
/// With LOCKDOWN_SNAPSHOT set, the dataset round-trips through the LDS store
/// instead: collect+save on first use, zero-copy mmap load afterwards.
inline const core::CollectionResult& SharedCollection() {
  static const core::CollectionResult result = [] {
    const core::StudyConfig cfg = DefaultConfig();
    const auto students =
        static_cast<std::uint64_t>(cfg.generator.population.num_students);
    const std::uint64_t seed = cfg.generator.population.seed;
    const char* snapshot = std::getenv("LOCKDOWN_SNAPSHOT");
    if (snapshot != nullptr && *snapshot != '\0' &&
        std::filesystem::exists(snapshot)) {
      store::LoadedSnapshot snap = store::LoadSnapshot(snapshot);
      if (snap.info.meta.num_students != 0 &&
          (snap.info.meta.num_students != students ||
           snap.info.meta.seed != seed)) {
        std::fprintf(stderr,
                     "[bench] warning: %s holds %llu students (seed %llu); "
                     "LOCKDOWN_STUDENTS/LOCKDOWN_SEED are ignored\n",
                     snapshot,
                     static_cast<unsigned long long>(snap.info.meta.num_students),
                     static_cast<unsigned long long>(snap.info.meta.seed));
      }
      std::fprintf(stderr, "[bench] loaded snapshot %s (%llu flows, %s)\n",
                   snapshot,
                   static_cast<unsigned long long>(snap.info.num_flows),
                   snap.zero_copy ? "zero-copy mmap" : "portable copy");
      return std::move(snap.collection);
    }
    std::fprintf(stderr, "[bench] simulating %d students (seed %llu)...\n",
                 cfg.generator.population.num_students,
                 static_cast<unsigned long long>(seed));
    core::CollectionResult fresh = core::MeasurementPipeline::Collect(cfg);
    if (snapshot != nullptr && *snapshot != '\0') {
      store::SaveSnapshot(snapshot, fresh,
                          store::SnapshotMeta{students, seed});
      std::fprintf(stderr, "[bench] wrote snapshot %s (%ju bytes)\n", snapshot,
                   static_cast<std::uintmax_t>(std::filesystem::file_size(snapshot)));
    }
    return fresh;
  }();
  return result;
}

inline const core::LockdownStudy& SharedStudy() {
  static const core::LockdownStudy study(SharedCollection().dataset,
                                         world::ServiceCatalog::Default(),
                                         DefaultConfig().threads);
  return study;
}

/// Collects named metrics and writes them as one JSON document at process
/// exit when LOCKDOWN_BENCH_JSON names a file. Without the env var the
/// collector is inert, so benches can always report.
class JsonReport {
 public:
  JsonReport() = default;

  static JsonReport& Get() {
    static JsonReport report;
    return report;
  }

  void SetBenchName(std::string name) { bench_ = std::move(name); }

  void Metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// JSON string-escapes quotes, backslashes and control characters; metric
  /// names come from code today, but one stray quote must not corrupt the
  /// whole baseline file.
  static std::string JsonEscape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  /// %.17g round-trips doubles, but prints non-finite values as nan/inf —
  /// which is not JSON. Map those to null (JSON's only honest spelling).
  static std::string JsonNumber(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

  /// The full document as a string; the exit-time writer and tests share it.
  [[nodiscard]] std::string Render() const {
    const core::StudyConfig cfg = DefaultConfig();
    std::string doc = "{\n  \"bench\": \"" + JsonEscape(bench_) + "\",\n";
    doc += "  \"config\": {\"students\": " +
           std::to_string(cfg.generator.population.num_students) +
           ", \"seed\": " + std::to_string(cfg.generator.population.seed) +
           ", \"threads\": " + std::to_string(cfg.threads) + "},\n";
    doc += "  \"metrics\": [\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      doc += "    {\"name\": \"" + JsonEscape(m.name) +
             "\", \"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
             JsonEscape(m.unit) + "\"}";
      doc += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    return doc;
  }

  ~JsonReport() {
    const char* path = std::getenv("LOCKDOWN_BENCH_JSON");
    if (path == nullptr || *path == '\0' || metrics_.empty()) return;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench] cannot write LOCKDOWN_BENCH_JSON=%s\n", path);
      return;
    }
    const std::string doc = Render();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string bench_ = "unnamed";
  std::vector<Entry> metrics_;
};

/// `Metric("streaming_flows_per_s", 1.1e6, "flows/s")` — record one result.
inline void Metric(std::string name, double value, std::string unit) {
  JsonReport::Get().Metric(std::move(name), value, std::move(unit));
}

/// Names the document written at exit; call once near the top of main().
inline void BenchName(std::string name) {
  JsonReport::Get().SetBenchName(std::move(name));
}

inline std::string Gb(double bytes, int precision = 2) {
  return util::FormatDouble(bytes / 1e9, precision);
}

inline std::string Mb(double bytes, int precision = 1) {
  return util::FormatDouble(bytes / 1e6, precision);
}

inline std::string DateOfDay(int day) {
  return util::FormatDate(util::StudyCalendar::DateAt(day));
}

/// Marks the paper's event dates in daily tables.
inline std::string EventMarker(int day) {
  using SC = util::StudyCalendar;
  const util::CivilDate d = SC::DateAt(day);
  if (d == SC::kStateOfEmergency) return "<- state of emergency";
  if (d == SC::kWhoPandemic) return "<- WHO declares pandemic";
  if (d == SC::kStayAtHome) return "<- stay-at-home order";
  if (d == SC::kBreakStart) return "<- academic break starts";
  if (d == SC::kBreakEnd) return "<- classes resume online";
  return "";
}

}  // namespace lockdown::bench
