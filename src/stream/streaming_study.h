// StreamingStudy: the sketched policy of the figure engine (core/study.h).
//
// The per-device pass is the same one LockdownStudy runs; what differs is
// what the pass's offers are folded into. The exact policy keeps every
// population value and counts distinct keys exactly, so its state grows
// with the number of devices. This policy holds a fixed bank of sketches
// sized by an explicit byte budget (stream/budget.h), for a deployment that
// must analyse months of tap logs in bounded memory:
//
//   Figure 1 + distinct sites   487 HyperLogLogs (121 days x 4 classes + 3
//                               site periods)
//   Figures 2, 3, 4, 6, 7       1680 reservoir samples, one per population
//                               cell (FigureEngine::kNumPopulations)
//   per-domain byte volume      one count-min sketch (EstimateDomainBytes),
//                               fed each device's per-domain byte totals
//
// The integer aggregates (Figure 2 means, 5, 8, categories, headline byte
// sums) are the engine's exact grids under both policies, and DiurnalShape
// is the engine's exact query-time scan.
//
// Accuracy taxonomy (tests/stream/figures_differential_test.cc and
// tests/stream/differential_test.cc):
//   * exact, bit-identical to LockdownStudy: the integer aggregates and the
//     diurnal shape, always;
//   * exact while no reservoir evicts (Accuracy().reservoirs_exact): the
//     median/box figures (2, 3, 4, 6, 7). Reservoirs are bottom-k by hashed
//     priority, so a non-evicting reservoir IS the population, emitted in
//     ascending device order — the exact policy's order;
//   * within published bounds otherwise: HLL cardinalities (Figure 1 and
//     the headline device and site counts) carry a 1.04/sqrt(2^p) relative
//     standard error; count-min point queries never undercount and
//     overshoot by more than epsilon*total with probability at most delta;
//     sampled reservoir quantiles converge as k grows.
//
// Determinism: every sketch update is order-independent (register max,
// bottom-k with a total order, integer adds), so each device's offers are
// applied to the one bank under its mutex as the device completes; no
// sketch is ever merged. Output is bit-identical at any thread count for
// the same seed and budget.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/study.h"
#include "sketch/count_min.h"
#include "sketch/hll.h"
#include "sketch/reservoir.h"
#include "stream/budget.h"
#include "util/mutex.h"

namespace lockdown::stream {

struct StreamingOptions {
  /// Hard byte budget for the engine's sketch state; the plan derived from
  /// it is queryable via plan(). Throws at construction if below the floor.
  std::size_t memory_budget_bytes = std::size_t{32} << 20;
  /// Seed for all sketch hashing (HLL, count-min rows, reservoir
  /// priorities). Independent of the simulation seed.
  std::uint64_t sketch_seed = 2020;
  /// 0 = LOCKDOWN_THREADS / hardware (util::ResolveThreadCount).
  int threads = 0;
};

class StreamingStudy final : public core::FigureEngine {
 public:
  /// Runs the census (shared StudyContext) and the figure pass into the
  /// sketch bank. After construction every figure query reads sketch state
  /// (DiurnalShape scans the flows).
  StreamingStudy(const core::Dataset& dataset,
                 const world::ServiceCatalog& catalog,
                 const StreamingOptions& options = {});

  // --- Figure 1 (estimated: HLL per day x class) -----------------------------
  struct ActiveDevicesRow {
    int day = 0;
    std::array<double, core::kNumReportClasses> by_class{};
    double total = 0.0;  ///< sum of the class estimates
  };
  [[nodiscard]] std::vector<ActiveDevicesRow> ActiveDevicesPerDay() const;

  // --- Per-domain byte volume (count-min; never undercounts) -----------------
  [[nodiscard]] std::uint64_t EstimateDomainBytes(core::DomainId domain) const;

  // --- Accuracy & accounting ---------------------------------------------------
  struct AccuracyReport {
    int hll_precision = 0;
    double hll_relative_standard_error = 0.0;
    double cms_epsilon = 0.0;
    double cms_delta = 0.0;
    std::uint64_t cms_total_bytes = 0;  ///< total weight the CMS absorbed
    std::size_t reservoir_capacity = 0;
    /// True when no reservoir ever evicted: every sampled figure is exact.
    bool reservoirs_exact = true;
    std::size_t state_bytes = 0;   ///< TrackedStateBytes() at report time
    std::size_t budget_bytes = 0;
  };
  [[nodiscard]] AccuracyReport Accuracy() const;

  /// Bytes of engine figure-state: all sketches (actual allocation) and the
  /// exact integer grids at their pass high-water. The dataset itself
  /// (mmap'd or in-memory) and the O(devices+domains) census are excluded —
  /// the budget governs what the pass accretes.
  [[nodiscard]] std::size_t TrackedStateBytes() const noexcept;

  [[nodiscard]] const MemoryPlan& plan() const noexcept { return plan_; }

 private:
  void BeginPass(std::size_t num_chunks) override;
  void Absorb(std::size_t chunk, const DeviceOffers& offers) override;
  void EndPass() override;
  [[nodiscard]] std::vector<double> Population(std::size_t cell) const override {
    return reservoirs_[cell].Values();
  }
  [[nodiscard]] double Count(std::size_t counter) const override {
    return hlls_[counter].Estimate();
  }
  /// Publishes post-pass sketch health (fill ratios, budget headroom,
  /// overflow pressure) to the obs registry; no-op unless metrics are on.
  void RecordObsGauges() const;

  MemoryPlan plan_;

  /// Guards every sketch below during the pass (Absorb folds a device's
  /// offers under it). The sketch fields themselves carry no GUARDED_BY:
  /// after the pass the engine is immutable and every figure query reads
  /// them lock-free — a phase discipline the static analysis cannot express
  /// (DESIGN.md §11).
  util::Mutex mutex_;
  std::vector<sketch::HyperLogLog> hlls_;            // kNumCounters
  std::vector<sketch::ReservoirSample> reservoirs_;  // kNumPopulations
  sketch::CountMinSketch domain_bytes_;
  /// One per pass chunk, touched only by the lane running that chunk: each
  /// device's per-domain byte totals, the count-min sketch's input. O(domains)
  /// pass scratch, freed by EndPass and, like the engine's site_seen,
  /// excluded from TrackedStateBytes.
  std::vector<core::DomainBytesTally> tallies_;
};

}  // namespace lockdown::stream
