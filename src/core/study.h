// The figure engine: every analysis in the paper (Figures 1-8, the
// extensions and the headline statistics) computed from a processed Dataset
// by ONE per-device pass, parameterised by an aggregator policy.
//
// FigureEngine runs the shared census (StudyContext), then walks the flows
// once in CSR order — device-clustered, time-sorted per device — and
// reduces each device to a few numbers: its byte total per day, its hourly
// volume in the Figure 3 weeks, its merged social-media sessions, its Steam
// use per month, and so on. Integer aggregates (byte sums, device counts
// behind the Figure 2 means, Switch counts) are exact under every policy and
// live in per-chunk grids folded in chunk order. What is left is handed to
// the policy as per-device *offers*:
//
//   * population values, one per (device, figure cell) — the inputs of every
//     median and box statistic (Figures 2, 3, 4, 6, 7);
//   * distinct keys, one per (device, day) for Figure 1 and one per
//     (device, domain, period) for the headline distinct-site counts.
//
// The policy decides how to hold them:
//   * LockdownStudy (below) is the exact policy: it keeps every value, in
//     device order, and counts distinct keys with plain counters.
//   * stream::StreamingStudy is the sketched policy: reservoirs, HyperLogLogs
//     and a count-min sketch sized by a memory budget.
// Figure methods then finish from what the policy holds; the finishing code
// (medians, box statistics, normalisations) exists once, here.
//
// DiurnalShape is the one figure outside the pass: it takes an arbitrary
// day range, so it scans the flow array at query time in kFlowGrain chunks
// folded in chunk order, and is exact under both policies.
//
// Query arguments outside the study window: months outside 2..5 give empty
// boxes (SocialDurations, SteamUsage), and DiurnalShape clamps its day range
// to [0, NumDays - 1] (an empty range gives all-zero profiles). Flows that
// start past the window (a June 1 flow in a log) count only where a figure's
// period is open-ended: the headline's Apr+May bytes and May distinct sites,
// and the Switch activity tests.
//
// Determinism: the pass uses the fixed-chunk decomposition of
// util/thread_pool.h. The exact policy appends each chunk's offers to a
// per-chunk buffer and folds the buffers in chunk order, so every output is
// bit-identical at any thread count (tests/core/parallel_equivalence_test.cc,
// tests/stream/figures_differential_test.cc).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "analysis/timeseries.h"
#include "core/dataset.h"
#include "core/study_context.h"
#include "util/thread_pool.h"

namespace lockdown::core {

class FigureEngine {
 public:
  FigureEngine(const FigureEngine&) = delete;
  FigureEngine& operator=(const FigureEngine&) = delete;
  virtual ~FigureEngine();

  // --- Device classification ------------------------------------------------
  [[nodiscard]] std::span<const classify::Classification> classifications() const noexcept {
    return ctx_.classifications();
  }
  [[nodiscard]] static ReportClass GroupOf(classify::DeviceClass c) noexcept {
    return ReportClassOf(c);
  }

  // --- Figure 2: mean & median bytes per active device per day by type -------
  struct BytesPerDeviceRow {
    int day = 0;
    std::array<double, kNumReportClasses> mean{};
    std::array<double, kNumReportClasses> median{};
  };
  [[nodiscard]] std::vector<BytesPerDeviceRow> BytesPerDevicePerDay() const;

  // --- §4: post-shutdown users -----------------------------------------------
  /// The devices that "remained on campus after the shutdown": any traffic
  /// once online classes begin (3/30). See StudyContext::post_shutdown for
  /// why the cohort anchors there rather than at the stay-at-home order.
  [[nodiscard]] const std::vector<DeviceIndex>& PostShutdownDevices() const noexcept {
    return ctx_.post_shutdown();
  }

  // --- Figure 3: normalized median per-device volume per hour of week --------
  struct HourOfWeekResult {
    /// One series per plotted week (Thursday-anchored; see
    /// StudyCalendar::kFig3Weeks), already normalized by the minimum
    /// positive hourly value across all weeks.
    std::array<analysis::HourOfWeekSeries, 4> weeks;
    double normalization = 0.0;  ///< the divisor applied
  };
  [[nodiscard]] HourOfWeekResult HourOfWeekVolume() const;

  // --- §4.2: international / domestic split ----------------------------------
  using PopulationSplit = StudyContext::PopulationSplit;
  [[nodiscard]] const PopulationSplit& Split() const noexcept {
    return ctx_.split();
  }

  // --- Figure 4: median daily bytes per device excluding Zoom ----------------
  struct Fig4Row {
    int day = 0;
    double intl_mobile_desktop = 0.0;
    double dom_mobile_desktop = 0.0;
    double intl_unclassified = 0.0;
    double dom_unclassified = 0.0;
  };
  [[nodiscard]] std::vector<Fig4Row> MedianBytesExcludingZoom() const;

  // --- Figure 5: daily aggregate Zoom traffic (post-shutdown users) ----------
  [[nodiscard]] analysis::DailySeries ZoomDailyBytes() const;

  // --- Figure 6: social-media mobile durations per month ----------------------
  struct SocialBox {
    analysis::BoxStats domestic;
    analysis::BoxStats international;
  };
  /// `month` in 2..5 (February..May); other months give empty boxes.
  /// Durations are hours per device over the month, from merged sessions
  /// (overlapping-flow bounds), FB/IG disambiguated by the
  /// Instagram-only-domain heuristic.
  [[nodiscard]] SocialBox SocialDurations(apps::SocialApp app, int month) const;

  // --- Figure 7: Steam bytes & connections per device per month ---------------
  struct SteamBox {
    analysis::BoxStats dom_bytes, intl_bytes;
    analysis::BoxStats dom_conns, intl_conns;
  };
  /// `month` in 2..5; other months give empty boxes.
  [[nodiscard]] SteamBox SteamUsage(int month) const;

  // --- Figure 8 / §5.3.2: Nintendo Switch ------------------------------------
  /// Daily gameplay bytes (moving-averaged) over Switches active in both
  /// February and May, gameplay domains only.
  [[nodiscard]] analysis::DailySeries SwitchGameplayDaily(int ma_window = 3) const;
  struct SwitchCounts {
    std::size_t active_february = 0;
    std::size_t active_post_shutdown = 0;
    std::size_t new_in_april_may = 0;  ///< first seen on/after April 1
  };
  [[nodiscard]] SwitchCounts CountSwitches() const;

  // --- Extension: work vs. leisure decomposition -------------------------------
  /// Daily bytes by service category for post-shutdown users. Not a paper
  /// figure; quantifies the intro's work/leisure framing ("entertainment
  /// usage increased" / education moved online).
  struct CategoryVolumeRow {
    int day = 0;
    double education = 0.0;       ///< LMS + office/cloud suites
    double video_conferencing = 0.0;
    double streaming = 0.0;       ///< video + music
    double social_media = 0.0;
    double gaming = 0.0;          ///< PC + console
    double messaging = 0.0;
    double other = 0.0;
  };
  [[nodiscard]] std::vector<CategoryVolumeRow> CategoryVolumes() const;

  // --- Extension: diurnal shape comparison --------------------------------------
  /// Hour-of-day volume profiles over a study-day range, split into weekday
  /// and weekend, each normalized to sum to 1. Feldmann et al. observed
  /// pandemic weekdays converging toward weekend shapes; the paper reports
  /// the opposite for this population — this method lets callers test it.
  /// The range is clamped to [0, NumDays - 1].
  struct DiurnalShapeResult {
    std::array<double, 24> weekday{};
    std::array<double, 24> weekend{};
  };
  [[nodiscard]] DiurnalShapeResult DiurnalShape(int first_day, int last_day) const;

  // --- §4/§4.1/§4.2 headline statistics ---------------------------------------
  struct Headline {
    int peak_active_devices = 0;
    int trough_active_devices = 0;
    std::size_t post_shutdown_users = 0;
    /// Mean daily traffic of post-shutdown users, Apr+May vs. Feb (0.58 in
    /// the paper).
    double traffic_increase = 0.0;
    /// Mean distinct sites per device per month, Apr+May vs. Feb (0.34).
    double distinct_sites_increase = 0.0;
    std::size_t international_devices = 0;
    double international_share = 0.0;  ///< of post-shutdown users
  };
  [[nodiscard]] Headline HeadlineStats() const;

  [[nodiscard]] const Dataset& dataset() const noexcept { return ctx_.dataset(); }
  [[nodiscard]] const StudyContext& context() const noexcept { return ctx_; }

  // --- The policy's vocabulary -------------------------------------------------
  /// Days in the study window (121; tests/util/time_test.cc pins it).
  static constexpr auto kDays =
      static_cast<std::size_t>(util::StudyCalendar::NumDays());
  /// Population cells, family by family: Figure 2 (day x class), Figure 3
  /// (week x hour of week), Figure 4 (day x group), Figure 6 (app x month x
  /// {dom, intl}) and Figure 7 (month x {dom, intl} x {bytes, conns}).
  static constexpr std::size_t kFig2Cells = 0;
  static constexpr std::size_t kFig3Cells = kFig2Cells + kDays * kNumReportClasses;
  static constexpr std::size_t kFig4Cells =
      kFig3Cells + 4 * analysis::HourOfWeekSeries::kHours;
  static constexpr std::size_t kFig6Cells = kFig4Cells + kDays * 4;
  static constexpr std::size_t kFig7Cells = kFig6Cells + 3 * 4 * 2;
  static constexpr std::size_t kNumPopulations = kFig7Cells + 4 * 2 * 2;
  /// Distinct counters: Figure 1 (day x class), then the headline's distinct
  /// (device, site) pairs in February, April and May.
  static constexpr std::size_t kSiteCounters = kDays * kNumReportClasses;
  static constexpr std::size_t kNumCounters = kSiteCounters + 3;

 protected:
  /// Runs the census on a pool of `threads` lanes (0 = LOCKDOWN_THREADS /
  /// hardware; see util::ResolveThreadCount). The derived policy's
  /// constructor then calls RunPass once.
  FigureEngine(const Dataset& dataset, const world::ServiceCatalog& catalog,
               int threads);

  /// One device's offers to the policy, in the order the pass produced them.
  /// Each (cell, device) and each distinct key appears at most once.
  struct DeviceOffers {
    DeviceIndex device = 0;
    std::vector<std::pair<std::uint32_t, double>> values;  ///< (cell, value)
    std::vector<std::pair<std::uint32_t, std::uint64_t>> keys;  ///< (counter, key)
  };

  /// The per-device pass over chunks of `grain` devices.
  void RunPass(std::size_t grain);

  /// Figure 1: the policy's count of class-`c` devices active on `day`.
  [[nodiscard]] double ActiveDevices(int day, ReportClass c) const {
    return Count(static_cast<std::size_t>(day) * kNumReportClasses +
                 static_cast<std::size_t>(c));
  }

  /// Bytes the exact integer grids held at their peak (per-chunk grids
  /// during the pass plus the folded one).
  [[nodiscard]] std::size_t grid_bytes() const noexcept { return grid_bytes_; }

 private:
  struct Grids;
  struct Scratch;

  // --- Policy hooks -------------------------------------------------------
  /// Called once before the pass with the number of chunks.
  virtual void BeginPass(std::size_t num_chunks) = 0;
  /// Called from pool lanes once per device with flows; a chunk's devices
  /// arrive in ascending order, chunks in any order.
  virtual void Absorb(std::size_t chunk, const DeviceOffers& offers) = 0;
  /// Called once after the pass.
  virtual void EndPass() = 0;
  /// After the pass: a cell's values in ascending device order.
  [[nodiscard]] virtual std::vector<double> Population(std::size_t cell) const = 0;
  /// After the pass: the number of distinct keys offered to a counter.
  [[nodiscard]] virtual double Count(std::size_t counter) const = 0;

  /// Walks one device's flows into `scratch.offers` and `grids`; false if
  /// the device has no flows.
  bool ProcessDevice(DeviceIndex dev, Scratch& scratch, Grids& grids);
  /// Medians of cells [first, first + count), computed on the pool.
  [[nodiscard]] std::vector<double> Medians(std::size_t first, std::size_t count) const;
  [[nodiscard]] double MedianOf(std::size_t cell) const;

  util::ThreadPool pool_;
  StudyContext ctx_;
  std::unique_ptr<const Grids> grids_;  ///< folded after the pass
  std::size_t grid_bytes_ = 0;
};

/// The exact policy: every population value kept in device order, distinct
/// keys counted exactly. The study behind the CLI's `study`, the examples
/// and bench/experiments.
class LockdownStudy final : public FigureEngine {
 public:
  /// Classifies every device, derives the domestic/international split and
  /// runs the figure pass. `threads` shards the census and the pass across
  /// a thread pool (0 = LOCKDOWN_THREADS/hardware); output is identical at
  /// any thread count.
  LockdownStudy(const Dataset& dataset, const world::ServiceCatalog& catalog,
                int threads = 0);

  // --- Figure 1: active devices per day by type ------------------------------
  struct ActiveDevicesRow {
    int day = 0;
    std::array<int, kNumReportClasses> by_class{};
    int total = 0;
  };
  [[nodiscard]] std::vector<ActiveDevicesRow> ActiveDevicesPerDay() const;

 private:
  struct Chunk {
    std::vector<std::pair<std::uint32_t, double>> values;
    std::vector<std::uint64_t> counts;
  };

  void BeginPass(std::size_t num_chunks) override;
  void Absorb(std::size_t chunk, const DeviceOffers& offers) override;
  void EndPass() override;
  [[nodiscard]] std::vector<double> Population(std::size_t cell) const override;
  [[nodiscard]] double Count(std::size_t counter) const override;

  std::vector<Chunk> chunks_;           ///< per-chunk offers during the pass
  std::vector<std::size_t> offsets_;    ///< CSR over cells into values_
  std::vector<double> values_;          ///< every population, device order
  std::vector<std::uint64_t> counts_;   ///< per distinct counter
};

}  // namespace lockdown::core
