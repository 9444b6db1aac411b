// LockdownStudy: every analysis in the paper, computed from a processed
// Dataset. Method names reference the figure or section they reproduce.
//
// The shared census (classification, domain flags, cohort, intl split) lives
// in StudyContext so the streaming engine (src/stream) can reuse it; this
// class adds the batch figure computations, which materialise per-(day,
// device) matrices and therefore scale with the dataset.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "analysis/stats.h"
#include "analysis/timeseries.h"
#include "core/dataset.h"
#include "core/study_context.h"
#include "query/columns.h"
#include "util/thread_pool.h"

namespace lockdown::core {

class LockdownStudy {
 public:
  /// Builds the study: classifies every device, geolocates February traffic
  /// and derives the domestic/international split, and precomputes per-domain
  /// application flags.
  ///
  /// `threads` shards the constructor passes and every figure computation
  /// across a thread pool (0 = LOCKDOWN_THREADS/hardware; see
  /// util::ResolveThreadCount). Work decomposes into fixed chunks that are
  /// reduced in chunk order, so each figure's output is identical at any
  /// thread count (see util/thread_pool.h for the determinism contract).
  LockdownStudy(const Dataset& dataset, const world::ServiceCatalog& catalog,
                int threads = 0);

  // --- Device classification ------------------------------------------------
  [[nodiscard]] std::span<const classify::Classification> classifications() const noexcept {
    return ctx_.classifications();
  }
  [[nodiscard]] static ReportClass GroupOf(classify::DeviceClass c) noexcept {
    return ReportClassOf(c);
  }

  // --- Figure 1: active devices per day by type ------------------------------
  struct ActiveDevicesRow {
    int day = 0;
    std::array<int, kNumReportClasses> by_class{};
    int total = 0;
  };
  [[nodiscard]] std::vector<ActiveDevicesRow> ActiveDevicesPerDay() const;

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
  /// `month` in 2..5 (February..May). Durations are hours per device over the
  /// month, from merged sessions (overlapping-flow bounds), FB/IG
  /// disambiguated by the Instagram-only-domain heuristic.
  [[nodiscard]] SocialBox SocialDurations(apps::SocialApp app, int month) const;

  // --- Figure 7: Steam bytes & connections per device per month ---------------
  struct SteamBox {
    analysis::BoxStats dom_bytes, intl_bytes;
    analysis::BoxStats dom_conns, intl_conns;
  };
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

 private:
  util::ThreadPool pool_;
  StudyContext ctx_;
  /// Columnar projection of the flow array (finalize order, so the CSR
  /// device offsets index it directly); the figure passes feed per-device
  /// and per-chunk slices of these columns through the query/kernels.h loops.
  query::FlowColumns cols_;
  std::vector<std::uint8_t> zoom_mask_;      ///< per flow: IsZoomFlow
  std::vector<std::uint8_t> not_zoom_mask_;  ///< complement of zoom_mask_
};

}  // namespace lockdown::core
