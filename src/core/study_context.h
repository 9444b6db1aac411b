// StudyContext: the shared census every analysis starts from.
//
// The figure engine (core/study.h) answers the paper's questions against
// these preconditions, under either aggregator policy: every device
// classified, every interned domain tagged with application flags, the
// post-shutdown cohort identified, and the international/domestic split
// derived from February traffic. This class owns exactly that state — O(num
// devices + num domains), independent of flow count.
//
// Determinism: construction shards across the caller's thread pool using the
// fixed-chunk decomposition of util/thread_pool.h, with slot-disjoint writes
// throughout, so the census is bit-identical at any thread count.
#pragma once

#include <vector>

#include "apps/zoom.h"
#include "classify/classifier.h"
#include "core/dataset.h"
#include "geo/intl.h"
#include "util/thread_pool.h"
#include "world/geo_db.h"

namespace lockdown::core {

// Chunk grains for the sharded passes of the census and the figure engine.
// Chunk boundaries depend only on the problem size (util/thread_pool.h), so
// every reduction — always folded in chunk order — produces the same bits
// at any thread count.
inline constexpr std::size_t kDeviceGrain = 64;   // per-device loops (CSR-disjoint)
inline constexpr std::size_t kCellGrain = 8;      // per-cell medians
inline constexpr std::size_t kFlowGrain = 16384;  // flat flow scans

/// Figure 3 only medians devices with substantive hourly traffic. The floor
/// keeps heartbeat-only devices (IoT pings, idle gadgets) from swamping the
/// median — their per-hour kilobytes say nothing about user behaviour, which
/// is what Fig. 3 tracks.
inline constexpr double kMinHourBytes = 1e6;

/// Figure-1 reporting classes (consoles are folded into IoT there).
enum class ReportClass : std::uint8_t {
  kMobile = 0,
  kLaptopDesktop = 1,
  kIot = 2,
  kUnclassified = 3,
};
inline constexpr int kNumReportClasses = 4;

[[nodiscard]] const char* ToString(ReportClass c) noexcept;

/// Maps the classifier's device class onto the figure-1 reporting class.
[[nodiscard]] ReportClass ReportClassOf(classify::DeviceClass c) noexcept;

class StudyContext {
 public:
  /// Per-domain application flags, set once per interned domain from the
  /// catalog service that owns it.
  struct DomainFlags {
    bool zoom = false;
    bool fb_family = false;       ///< owned by facebook or instagram
    bool instagram_only = false;  ///< owned by instagram
    bool tiktok = false;
    bool steam = false;
    bool nintendo_gameplay = false;
  };

  /// §4.2 international / domestic split over the post-shutdown cohort.
  struct PopulationSplit {
    std::vector<bool> international;  ///< per DeviceIndex; unlabeled => domestic
    std::size_t num_international = 0;
    std::size_t num_with_geo = 0;  ///< devices with usable February traffic
  };

  /// Runs the census passes on `pool`. The pool is only borrowed for
  /// construction; the finished context is immutable and thread-safe to read.
  StudyContext(const Dataset& dataset, const world::ServiceCatalog& catalog,
               util::ThreadPool& pool);

  [[nodiscard]] const Dataset& dataset() const noexcept { return *dataset_; }
  [[nodiscard]] const world::ServiceCatalog& catalog() const noexcept {
    return *catalog_;
  }

  [[nodiscard]] std::span<const classify::Classification> classifications()
      const noexcept {
    return classifications_;
  }
  [[nodiscard]] ReportClass report_class(std::size_t device) const noexcept {
    return report_class_[device];
  }
  [[nodiscard]] const DomainFlags& domain_flags(DomainId domain) const noexcept {
    return domain_flags_[domain];
  }

  /// The devices that "remained on campus after the shutdown": any traffic
  /// once online classes begin (3/30). The cohort anchors there rather than
  /// at the stay-at-home order because students kept departing through the
  /// academic break; an earlier anchor would mix departing devices into the
  /// §4.1 within-cohort comparisons.
  [[nodiscard]] const std::vector<DeviceIndex>& post_shutdown() const noexcept {
    return post_shutdown_;
  }
  [[nodiscard]] bool IsPostShutdown(std::size_t device) const noexcept {
    return is_post_shutdown_[device] != 0;
  }

  [[nodiscard]] const PopulationSplit& split() const noexcept { return split_; }

  /// Stay-at-home order day (Fig. 1 trough search starts here).
  [[nodiscard]] int shutdown_day() const noexcept { return shutdown_day_; }
  /// Online-term start day (post-shutdown cohort anchor).
  [[nodiscard]] int post_shutdown_day() const noexcept {
    return post_shutdown_day_;
  }

  [[nodiscard]] bool IsZoomFlow(const Flow& f) const noexcept;

  /// True if the classifier called the device a Switch by the §5.3.2
  /// traffic rule (at least half its domain-attributed bytes go to Nintendo
  /// domains).
  [[nodiscard]] bool IsSwitchDevice(DeviceIndex device) const noexcept {
    return is_switch_[device] != 0;
  }

  /// Spreads a flow's bytes uniformly over the hours it spans, calling
  /// add(hour_timestamp, bytes_in_hour).
  template <typename Fn>
  static void SpreadOverHours(const Flow& f, Fn&& add) {
    const util::Timestamp start = Dataset::StartOf(f);
    const auto dur = static_cast<util::Timestamp>(f.duration_s);
    const util::Timestamp end = start + std::max<util::Timestamp>(dur, 1);
    const double total = static_cast<double>(f.total_bytes());
    const double span = static_cast<double>(end - start);
    util::Timestamp t = start;
    while (t < end) {
      const util::Timestamp hour_end =
          (t / util::kSecondsPerHour + 1) * util::kSecondsPerHour;
      const util::Timestamp chunk_end = std::min(hour_end, end);
      add(t, total * static_cast<double>(chunk_end - t) / span);
      t = chunk_end;
    }
  }

 private:
  void ComputeSplit(util::ThreadPool& pool);

  const Dataset* dataset_;
  const world::ServiceCatalog* catalog_;
  world::GeoDatabase geo_db_;
  apps::ZoomMatcher zoom_;
  std::vector<classify::Classification> classifications_;
  std::vector<ReportClass> report_class_;
  std::vector<DomainFlags> domain_flags_;  // indexed by DomainId
  std::vector<std::uint8_t> is_switch_;    // per device
  std::vector<DeviceIndex> post_shutdown_;
  std::vector<std::uint8_t> is_post_shutdown_;  // per device
  PopulationSplit split_;
  int shutdown_day_ = 0;
  int post_shutdown_day_ = 0;
};

}  // namespace lockdown::core
