#include "core/study.h"

// This TU is the figure boundary of DESIGN §5: every ParallelFor here fills
// per-day / per-device slots with floating-point statistics (means, medians,
// hour spreads) computed from the integer accumulators upstream. Per-slot FP
// with a single writer per slot is deterministic, so the integer-only rule
// does not apply — it keeps protecting src/stream and src/query, where
// accumulation crosses flows and must stay integral.
// lockdown-lint: disable-file(LD001)

#include "obs/obs.h"
#include "query/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace lockdown::core {

using util::StudyCalendar;
using util::Timestamp;

namespace {

constexpr auto kSpd = static_cast<std::uint32_t>(util::kSecondsPerDay);

/// Clamps a timestamp-difference to the u32 start-offset domain, so calendar
/// windows translate into bounds over the start-offset column.
[[nodiscard]] std::uint32_t ClampOffset(std::int64_t v) noexcept {
  if (v < 0) return 0;
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    return std::numeric_limits<std::uint32_t>::max();
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

LockdownStudy::LockdownStudy(const Dataset& dataset,
                             const world::ServiceCatalog& catalog, int threads)
    : pool_(util::ResolveThreadCount(threads)),
      ctx_(dataset, catalog, pool_),
      cols_(query::BuildFlowColumns(dataset.flows(), pool_)) {
  OBS_SPAN("study/build_masks");
  // Per-flow Zoom mask: the domain-signature kernel covers every interned
  // domain; raw-IP flows (domain 0) fall back to the context's IP matcher.
  const std::size_t num_flows = cols_.size();
  zoom_mask_.resize(num_flows);
  not_zoom_mask_.resize(num_flows);
  const query::ByteLut zoom_lut(dataset.num_domains(), [&](std::size_t d) {
    return ctx_.domain_flags(static_cast<DomainId>(d)).zoom;
  });
  const auto flows = dataset.flows();
  pool_.ParallelFor(
      num_flows, kFlowGrain,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        query::FlagMaskU8(cols_.domain.data() + begin, end - begin,
                          zoom_lut.data(), zoom_mask_.data() + begin);
        for (std::size_t i = begin; i < end; ++i) {
          if (cols_.domain[i] == kNoDomain) {
            zoom_mask_[i] = ctx_.IsZoomFlow(flows[i]) ? 1 : 0;
          }
          not_zoom_mask_[i] = zoom_mask_[i] ^ 1;
        }
      });
}

std::vector<LockdownStudy::ActiveDevicesRow> LockdownStudy::ActiveDevicesPerDay()
    const {
  OBS_SPAN("study/fig1_active_devices");
  const Dataset& ds = ctx_.dataset();
  const int days = StudyCalendar::NumDays();
  const auto udays = static_cast<std::uint32_t>(days);
  const std::size_t n = ds.num_devices();
  const auto offsets = ds.device_offsets();
  // Device-major active matrix: each device scatters its (sorted) timestamp
  // slice into its own row, so the fill shards without write overlap.
  std::vector<std::uint8_t> active(n * static_cast<std::size_t>(days), 0);
  pool_.ParallelFor(
      n, kDeviceGrain, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t dev = begin; dev < end; ++dev) {
          const auto b = static_cast<std::size_t>(offsets[dev]);
          query::MarkDaysU8(cols_.start.data() + b,
                            static_cast<std::size_t>(offsets[dev + 1]) - b,
                            kSpd,
                            active.data() + dev * static_cast<std::size_t>(days),
                            udays);
        }
      });
  std::vector<ActiveDevicesRow> rows(static_cast<std::size_t>(days));
  // Row-disjoint aggregation: each day reads its own stripe, devices in
  // index order (the order the old day-major loop visited them).
  pool_.ParallelFor(static_cast<std::size_t>(days), kDayGrain,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t day = begin; day < end; ++day) {
                        ActiveDevicesRow& row = rows[day];
                        row.day = static_cast<int>(day);
                        for (std::size_t dev = 0; dev < n; ++dev) {
                          if (!active[dev * static_cast<std::size_t>(days) +
                                      day]) {
                            continue;
                          }
                          ++row.by_class[static_cast<std::size_t>(
                              ctx_.report_class(dev))];
                          ++row.total;
                        }
                      }
                    });
  return rows;
}

std::vector<LockdownStudy::BytesPerDeviceRow> LockdownStudy::BytesPerDevicePerDay()
    const {
  OBS_SPAN("study/fig2_bytes_per_device");
  const Dataset& ds = ctx_.dataset();
  const int days = StudyCalendar::NumDays();
  const auto udays = static_cast<std::uint32_t>(days);
  const std::size_t n = ds.num_devices();
  const auto offsets = ds.device_offsets();
  // Device-major u64 sums; each day-sum stays far below 2^53, so the final
  // double conversion reproduces the old per-flow double accumulation bit
  // for bit.
  std::vector<std::uint64_t> bytes(n * static_cast<std::size_t>(days), 0);
  pool_.ParallelFor(
      n, kDeviceGrain, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t dev = begin; dev < end; ++dev) {
          const auto b = static_cast<std::size_t>(offsets[dev]);
          query::DaySumsU64(cols_.start.data() + b, cols_.bytes.data() + b,
                            nullptr,
                            static_cast<std::size_t>(offsets[dev + 1]) - b,
                            kSpd,
                            bytes.data() + dev * static_cast<std::size_t>(days),
                            udays);
        }
      });
  std::vector<BytesPerDeviceRow> rows(static_cast<std::size_t>(days));
  pool_.ParallelFor(
      static_cast<std::size_t>(days), kDayGrain,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::array<std::vector<double>, kNumReportClasses> per_class;
        for (std::size_t day = begin; day < end; ++day) {
          BytesPerDeviceRow& row = rows[day];
          row.day = static_cast<int>(day);
          for (auto& v : per_class) v.clear();
          for (std::size_t dev = 0; dev < n; ++dev) {
            const std::uint64_t v =
                bytes[dev * static_cast<std::size_t>(days) + day];
            if (v == 0) continue;
            per_class[static_cast<std::size_t>(ctx_.report_class(dev))]
                .push_back(static_cast<double>(v));
          }
          for (int c = 0; c < kNumReportClasses; ++c) {
            auto& v = per_class[static_cast<std::size_t>(c)];
            row.mean[static_cast<std::size_t>(c)] = analysis::Mean(v);
            row.median[static_cast<std::size_t>(c)] =
                analysis::PercentileInPlace(v, 50.0);
          }
        }
      });
  return rows;
}

LockdownStudy::HourOfWeekResult LockdownStudy::HourOfWeekVolume() const {
  OBS_SPAN("study/fig3_hour_of_week");
  HourOfWeekResult result;
  const Dataset& ds = ctx_.dataset();
  const std::size_t n = ds.num_devices();
  constexpr int kH = analysis::HourOfWeekSeries::kHours;
  for (std::size_t w = 0; w < 4; ++w) {
    const Timestamp anchor = util::TimestampOf(StudyCalendar::kFig3Weeks[w]);
    // Per (device, hour-of-week) volume for this week; device-major so the
    // fill shards over devices without write overlap.
    std::vector<double> volume(n * static_cast<std::size_t>(kH), 0.0);
    pool_.ParallelFor(
        n, kDeviceGrain, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t dev = begin; dev < end; ++dev) {
            for (const Flow& f :
                 ds.FlowsOfDevice(static_cast<DeviceIndex>(dev))) {
              StudyContext::SpreadOverHours(f, [&](Timestamp t, double b) {
                const auto bin = analysis::HourOfWeekSeries::BinOf(t, anchor);
                if (bin) {
                  volume[dev * static_cast<std::size_t>(kH) +
                         static_cast<std::size_t>(*bin)] += b;
                }
              });
            }
          }
        });
    // Median across devices with substantive traffic in that hour (see
    // kMinHourBytes in study_context.h).
    pool_.ParallelFor(
        static_cast<std::size_t>(kH), kHourGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          std::vector<double> column;
          for (std::size_t h = begin; h < end; ++h) {
            column.clear();
            for (std::size_t dev = 0; dev < n; ++dev) {
              const double v = volume[dev * static_cast<std::size_t>(kH) + h];
              if (v >= kMinHourBytes) column.push_back(v);
            }
            result.weeks[w].AddBin(static_cast<int>(h),
                                   analysis::PercentileInPlace(column, 50.0));
          }
        });
  }
  // "the data is normalized by the minimum volume of traffic across all
  //  weeks" (§4.1).
  double min_positive = 0.0;
  for (const auto& week : result.weeks) {
    const double m = week.MinPositive();
    if (m > 0.0 && (min_positive == 0.0 || m < min_positive)) min_positive = m;
  }
  result.normalization = min_positive;
  for (auto& week : result.weeks) week.Scale(min_positive);
  return result;
}

std::vector<LockdownStudy::Fig4Row> LockdownStudy::MedianBytesExcludingZoom() const {
  OBS_SPAN("study/fig4_population_split");
  const Dataset& ds = ctx_.dataset();
  const int days = StudyCalendar::NumDays();
  const auto udays = static_cast<std::uint32_t>(days);
  const std::size_t n = ds.num_devices();
  const auto offsets = ds.device_offsets();
  // "we exclude Zoom traffic" (§4.2): the not-Zoom mask gates the masked
  // day-sum kernel over each post-shutdown device's slice.
  std::vector<std::uint64_t> bytes(n * static_cast<std::size_t>(days), 0);
  pool_.ParallelFor(
      n, kDeviceGrain, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t dev = begin; dev < end; ++dev) {
          if (!ctx_.IsPostShutdown(dev)) continue;
          const auto b = static_cast<std::size_t>(offsets[dev]);
          query::DaySumsU64(
              cols_.start.data() + b, cols_.bytes.data() + b,
              not_zoom_mask_.data() + b,
              static_cast<std::size_t>(offsets[dev + 1]) - b, kSpd,
              bytes.data() + dev * static_cast<std::size_t>(days), udays);
        }
      });
  std::vector<Fig4Row> rows(static_cast<std::size_t>(days));
  pool_.ParallelFor(
      static_cast<std::size_t>(days), kDayGrain,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<double> groups[4];
        for (std::size_t day = begin; day < end; ++day) {
          Fig4Row& row = rows[day];
          row.day = static_cast<int>(day);
          for (auto& g : groups) g.clear();
          for (std::size_t dev = 0; dev < n; ++dev) {
            const std::uint64_t v =
                bytes[dev * static_cast<std::size_t>(days) + day];
            if (v == 0 || !ctx_.IsPostShutdown(dev)) continue;
            const ReportClass rc = ctx_.report_class(dev);
            // "We consider mobile and desktop devices separately from
            //  unclassified devices, and exclude IoT devices here" (Fig. 4
            //  caption).
            int group;
            if (rc == ReportClass::kMobile || rc == ReportClass::kLaptopDesktop) {
              group = ctx_.split().international[dev] ? 0 : 1;
            } else if (rc == ReportClass::kUnclassified) {
              group = ctx_.split().international[dev] ? 2 : 3;
            } else {
              continue;
            }
            groups[group].push_back(static_cast<double>(v));
          }
          row.intl_mobile_desktop = analysis::PercentileInPlace(groups[0], 50.0);
          row.dom_mobile_desktop = analysis::PercentileInPlace(groups[1], 50.0);
          row.intl_unclassified = analysis::PercentileInPlace(groups[2], 50.0);
          row.dom_unclassified = analysis::PercentileInPlace(groups[3], 50.0);
        }
      });
  return rows;
}

analysis::DailySeries LockdownStudy::ZoomDailyBytes() const {
  OBS_SPAN("study/fig5_zoom_daily");
  const Dataset& ds = ctx_.dataset();
  const int days = StudyCalendar::NumDays();
  const auto udays = static_cast<std::uint32_t>(days);
  const std::size_t n = ds.num_devices();
  const auto offsets = ds.device_offsets();
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kDeviceGrain);
  // Per-chunk u64 day totals, folded in chunk order below — integer sums
  // make the fold exact, so the series matches the old per-flow double
  // accumulation.
  std::vector<std::vector<std::uint64_t>> shards(num_chunks);
  pool_.ParallelFor(
      n, kDeviceGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t>& sums = shards[chunk];
        sums.assign(static_cast<std::size_t>(days), 0);
        for (std::size_t dev = begin; dev < end; ++dev) {
          if (!ctx_.IsPostShutdown(dev)) continue;
          const auto b = static_cast<std::size_t>(offsets[dev]);
          query::DaySumsU64(
              cols_.start.data() + b, cols_.bytes.data() + b,
              zoom_mask_.data() + b,
              static_cast<std::size_t>(offsets[dev + 1]) - b, kSpd,
              sums.data(), udays);
        }
      });
  analysis::DailySeries series;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    for (int d = 0; d < days; ++d) {
      const std::uint64_t v = shards[c][static_cast<std::size_t>(d)];
      if (v != 0) series.AddDay(d, static_cast<double>(v));
    }
  }
  return series;
}

LockdownStudy::SocialBox LockdownStudy::SocialDurations(apps::SocialApp app,
                                                        int month) const {
  OBS_SPAN("study/fig6_social");
  const Dataset& ds = ctx_.dataset();
  const std::vector<DeviceIndex>& cohort = ctx_.post_shutdown();
  const Timestamp month_start = util::TimestampOf(util::CivilDate{2020, month, 1});
  const Timestamp month_end =
      util::TimestampOf(util::CivilDate{2020, month + 1, 1});
  // The month window as start-offset bounds: std::lower_bound over each
  // device's slice of the start column (sorted: Finalize() orders flows by
  // (device, start) and store::Reader rejects any other order) yields
  // [first, last) directly, so the session pass only touches in-window
  // flows.
  const std::uint32_t win_lo = ClampOffset(month_start - StudyCalendar::StartTs());
  const std::uint32_t win_hi = ClampOffset(month_end - StudyCalendar::StartTs());
  const auto offsets = ds.device_offsets();
  const auto flows = ds.flows();
  // Session merging dominates here, so shard over cohort members; per-device
  // hours land in disjoint slots and fold below in cohort order — the order
  // the serial loop pushed them.
  enum : std::uint8_t { kSkip = 0, kDomestic = 1, kInternational = 2 };
  std::vector<double> hours_of(cohort.size(), 0.0);
  std::vector<std::uint8_t> bucket(cohort.size(), kSkip);
  pool_.ParallelFor(
      cohort.size(), kSessionGrain,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<apps::FlowInterval> intervals;
        for (std::size_t k = begin; k < end; ++k) {
          const DeviceIndex dev = cohort[k];
          // "We analyze only mobile traffic" (§5.2).
          if (ctx_.report_class(dev) != ReportClass::kMobile) continue;
          intervals.clear();
          const auto b = static_cast<std::size_t>(offsets[dev]);
          const std::size_t len = static_cast<std::size_t>(offsets[dev + 1]) - b;
          const auto first = cols_.start.begin() + b;
          const auto wb = static_cast<std::size_t>(
              std::lower_bound(first, first + len, win_lo) - cols_.start.begin());
          const auto we = static_cast<std::size_t>(
              std::lower_bound(first, first + len, win_hi) - cols_.start.begin());
          for (std::size_t i = wb; i < we; ++i) {
            const Flow& f = flows[i];
            const Timestamp start = Dataset::StartOf(f);
            if (f.domain == kNoDomain) continue;
            const StudyContext::DomainFlags& flags = ctx_.domain_flags(f.domain);
            const bool relevant =
                app == apps::SocialApp::kTikTok ? flags.tiktok : flags.fb_family;
            if (!relevant) continue;
            intervals.push_back(apps::FlowInterval{
                start,
                start + std::max<Timestamp>(static_cast<Timestamp>(f.duration_s), 1),
                f.domain, f.total_bytes()});
          }
          if (intervals.empty()) continue;
          double hours = 0.0;
          for (const apps::Session& session : apps::MergeSessions(intervals)) {
            if (app != apps::SocialApp::kTikTok) {
              const apps::SocialApp resolved = ctx_.social().ClassifySession(
                  session,
                  [&ds](std::uint32_t tag) { return ds.DomainName(tag); });
              if (resolved != app) continue;
            }
            hours += session.duration_s() / 3600.0;
          }
          if (hours <= 0.0) continue;
          hours_of[k] = hours;
          bucket[k] = ctx_.split().international[dev] ? kInternational : kDomestic;
        }
      });
  std::vector<double> dom;
  std::vector<double> intl;
  for (std::size_t k = 0; k < cohort.size(); ++k) {
    if (bucket[k] == kSkip) continue;
    (bucket[k] == kInternational ? intl : dom).push_back(hours_of[k]);
  }
  return SocialBox{analysis::ComputeBoxStats(std::move(dom)),
                   analysis::ComputeBoxStats(std::move(intl))};
}

LockdownStudy::SteamBox LockdownStudy::SteamUsage(int month) const {
  OBS_SPAN("study/fig7_steam");
  const Dataset& ds = ctx_.dataset();
  const Timestamp month_start = util::TimestampOf(util::CivilDate{2020, month, 1});
  const Timestamp month_end =
      util::TimestampOf(util::CivilDate{2020, month + 1, 1});
  const std::uint32_t win_lo = ClampOffset(month_start - StudyCalendar::StartTs());
  const std::uint32_t win_hi = ClampOffset(month_end - StudyCalendar::StartTs());
  const query::ByteLut steam_lut(ds.num_domains(), [&](std::uint32_t d) {
    return d != kNoDomain && ctx_.domain_flags(d).steam;
  });
  const auto offsets = ds.device_offsets();
  std::vector<double> dom_bytes, intl_bytes, dom_conns, intl_conns;
  const std::size_t n = ds.num_devices();
  std::vector<double> bytes(n, 0.0);
  std::vector<double> conns(n, 0.0);
  pool_.ParallelFor(
      n, kDeviceGrain, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<std::uint8_t> mask;
        for (std::size_t dev = begin; dev < end; ++dev) {
          const auto b = static_cast<std::size_t>(offsets[dev]);
          const std::size_t len = static_cast<std::size_t>(offsets[dev + 1]) - b;
          const auto first = cols_.start.begin() + b;
          const auto wb = static_cast<std::size_t>(
              std::lower_bound(first, first + len, win_lo) - cols_.start.begin());
          const auto we = static_cast<std::size_t>(
              std::lower_bound(first, first + len, win_hi) - cols_.start.begin());
          if (wb == we) continue;
          mask.resize(we - wb);
          query::FlagMaskU8(cols_.domain.data() + wb, we - wb, steam_lut.data(),
                            mask.data());
          const auto hits = std::count(mask.begin(), mask.end(), 1);
          if (hits == 0) continue;
          bytes[dev] = static_cast<double>(
              query::MaskedSumU64(cols_.bytes.data() + wb, mask.data(), we - wb));
          conns[dev] = static_cast<double>(hits);
        }
      });
  for (const DeviceIndex dev : ctx_.post_shutdown()) {
    if (conns[dev] <= 0.0) continue;
    if (ctx_.split().international[dev]) {
      intl_bytes.push_back(bytes[dev]);
      intl_conns.push_back(conns[dev]);
    } else {
      dom_bytes.push_back(bytes[dev]);
      dom_conns.push_back(conns[dev]);
    }
  }
  return SteamBox{analysis::ComputeBoxStats(std::move(dom_bytes)),
                  analysis::ComputeBoxStats(std::move(intl_bytes)),
                  analysis::ComputeBoxStats(std::move(dom_conns)),
                  analysis::ComputeBoxStats(std::move(intl_conns))};
}

analysis::DailySeries LockdownStudy::SwitchGameplayDaily(int ma_window) const {
  OBS_SPAN("study/fig8_switch_daily");
  // Switches "active in both February and May" (Fig. 8 caption).
  const Dataset& ds = ctx_.dataset();
  const std::size_t n = ds.num_devices();
  const int feb_end = StudyCalendar::DayIndex(util::CivilDate{2020, 3, 1});
  const int may_start = StudyCalendar::DayIndex(util::CivilDate{2020, 5, 1});
  const std::uint32_t feb_end_off = static_cast<std::uint32_t>(feb_end) * kSpd;
  const std::uint32_t may_start_off = static_cast<std::uint32_t>(may_start) * kSpd;
  const int days = StudyCalendar::NumDays();
  const auto udays = static_cast<std::uint32_t>(days);
  const query::ByteLut gameplay_lut(ds.num_domains(), [&](std::uint32_t d) {
    return d != kNoDomain && ctx_.domain_flags(d).nintendo_gameplay;
  });
  const auto offsets = ds.device_offsets();
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kDeviceGrain);
  std::vector<std::vector<std::uint64_t>> shards(num_chunks);
  pool_.ParallelFor(
      n, kDeviceGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t>& sums = shards[chunk];
        sums.assign(static_cast<std::size_t>(days), 0);
        std::vector<std::uint8_t> mask;
        for (std::size_t dev = begin; dev < end; ++dev) {
          const auto di = static_cast<DeviceIndex>(dev);
          if (!ctx_.IsSwitchDevice(di)) continue;
          const auto b = static_cast<std::size_t>(offsets[dev]);
          const std::size_t len = static_cast<std::size_t>(offsets[dev + 1]) - b;
          if (len == 0) continue;
          // Within-device flows are sorted by start, so the activity tests
          // read the slice's ends: any flow before March 1 / any flow on or
          // after May 1.
          const bool in_feb = cols_.start[b] < feb_end_off;
          const bool in_may = cols_.start[b + len - 1] >= may_start_off;
          if (!in_feb || !in_may) continue;
          mask.resize(len);
          query::FlagMaskU8(cols_.domain.data() + b, len, gameplay_lut.data(),
                            mask.data());
          query::DaySumsU64(cols_.start.data() + b, cols_.bytes.data() + b,
                            mask.data(), len, kSpd, sums.data(), udays);
        }
      });
  analysis::DailySeries series;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    for (int d = 0; d < days; ++d) {
      const std::uint64_t v = shards[c][static_cast<std::size_t>(d)];
      if (v != 0) series.AddDay(d, static_cast<double>(v));
    }
  }
  return series.MovingAverage(ma_window);
}

LockdownStudy::SwitchCounts LockdownStudy::CountSwitches() const {
  OBS_SPAN("study/fig8_switch_counts");
  const Dataset& ds = ctx_.dataset();
  const std::size_t n = ds.num_devices();
  const int feb_end = StudyCalendar::DayIndex(util::CivilDate{2020, 3, 1});
  const int april_start = StudyCalendar::DayIndex(util::CivilDate{2020, 4, 1});
  const std::uint32_t feb_end_off = static_cast<std::uint32_t>(feb_end) * kSpd;
  const std::uint32_t post_off =
      static_cast<std::uint32_t>(ctx_.post_shutdown_day()) * kSpd;
  const auto offsets = ds.device_offsets();
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kDeviceGrain);
  std::vector<SwitchCounts> shards(num_chunks);
  pool_.ParallelFor(
      n, kDeviceGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        SwitchCounts& counts = shards[chunk];
        for (std::size_t dev = begin; dev < end; ++dev) {
          const auto di = static_cast<DeviceIndex>(dev);
          if (!ctx_.IsSwitchDevice(di)) continue;
          const auto b = static_cast<std::size_t>(offsets[dev]);
          const std::size_t len = static_cast<std::size_t>(offsets[dev + 1]) - b;
          if (len == 0) continue;
          // Within-device flows are sorted by start, so the first flow holds
          // the earliest day and the activity tests read the slice's ends.
          const bool feb = cols_.start[b] < feb_end_off;
          const bool post = cols_.start[b + len - 1] >= post_off;
          const int first_day = static_cast<int>(cols_.start[b] / kSpd);
          counts.active_february += feb;
          counts.active_post_shutdown += post;
          counts.new_in_april_may += first_day >= april_start;
        }
      });
  SwitchCounts counts;
  for (const SwitchCounts& s : shards) {
    counts.active_february += s.active_february;
    counts.active_post_shutdown += s.active_post_shutdown;
    counts.new_in_april_may += s.new_in_april_may;
  }
  return counts;
}

std::vector<LockdownStudy::CategoryVolumeRow> LockdownStudy::CategoryVolumes()
    const {
  OBS_SPAN("study/categories");
  const Dataset& ds = ctx_.dataset();
  const world::ServiceCatalog& catalog = ctx_.catalog();
  const int days = StudyCalendar::NumDays();
  const std::size_t num_flows = ds.num_flows();
  const std::size_t num_chunks =
      util::ThreadPool::NumChunks(num_flows, kFlowGrain);
  std::vector<std::vector<CategoryVolumeRow>> shards(
      num_chunks, std::vector<CategoryVolumeRow>(static_cast<std::size_t>(days)));
  const auto flows = ds.flows();
  pool_.ParallelFor(
      num_flows, kFlowGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<CategoryVolumeRow>& rows = shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const Flow& f = flows[i];
          if (!ctx_.IsPostShutdown(f.device)) continue;
          const int day = Dataset::DayOf(f);
          if (day < 0 || day >= days) continue;
          CategoryVolumeRow& row = rows[static_cast<std::size_t>(day)];
          const double bytes = static_cast<double>(f.total_bytes());
          const auto svc = catalog.FindByIp(f.server_ip);
          if (!svc) {
            row.other += bytes;
            continue;
          }
          switch (catalog.Get(*svc).category) {
            case world::Category::kEducation:
            case world::Category::kEmailCloud:
              row.education += bytes;
              break;
            case world::Category::kVideoConferencing:
              row.video_conferencing += bytes;
              break;
            case world::Category::kStreaming:
            case world::Category::kMusic:
              row.streaming += bytes;
              break;
            case world::Category::kSocialMedia:
              row.social_media += bytes;
              break;
            case world::Category::kGamingPc:
            case world::Category::kGamingConsole:
              row.gaming += bytes;
              break;
            case world::Category::kMessaging:
              row.messaging += bytes;
              break;
            default:
              row.other += bytes;
              break;
          }
        }
      });
  std::vector<CategoryVolumeRow> rows(static_cast<std::size_t>(days));
  for (int d = 0; d < days; ++d) rows[static_cast<std::size_t>(d)].day = d;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    for (int d = 0; d < days; ++d) {
      CategoryVolumeRow& dst = rows[static_cast<std::size_t>(d)];
      const CategoryVolumeRow& src = shards[c][static_cast<std::size_t>(d)];
      dst.education += src.education;
      dst.video_conferencing += src.video_conferencing;
      dst.streaming += src.streaming;
      dst.social_media += src.social_media;
      dst.gaming += src.gaming;
      dst.messaging += src.messaging;
      dst.other += src.other;
    }
  }
  return rows;
}

LockdownStudy::DiurnalShapeResult LockdownStudy::DiurnalShape(int first_day,
                                                              int last_day) const {
  OBS_SPAN("study/diurnal");
  const Dataset& ds = ctx_.dataset();
  const std::size_t num_flows = ds.num_flows();
  const std::size_t num_chunks =
      util::ThreadPool::NumChunks(num_flows, kFlowGrain);
  std::vector<DiurnalShapeResult> shards(num_chunks);
  const auto flows = ds.flows();
  pool_.ParallelFor(
      num_flows, kFlowGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        DiurnalShapeResult& partial = shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const Flow& f = flows[i];
          const int day = Dataset::DayOf(f);
          if (day < first_day || day > last_day) continue;
          const bool weekend =
              util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)));
          auto& profile = weekend ? partial.weekend : partial.weekday;
          StudyContext::SpreadOverHours(f, [&profile](Timestamp t, double bytes) {
            profile[static_cast<std::size_t>(util::HourOf(t))] += bytes;
          });
        }
      });
  DiurnalShapeResult result;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    for (std::size_t h = 0; h < 24; ++h) {
      result.weekday[h] += shards[c].weekday[h];
      result.weekend[h] += shards[c].weekend[h];
    }
  }
  for (auto* profile : {&result.weekday, &result.weekend}) {
    double sum = 0.0;
    for (double v : *profile) sum += v;
    if (sum > 0.0) {
      for (double& v : *profile) v /= sum;
    }
  }
  return result;
}

LockdownStudy::Headline LockdownStudy::HeadlineStats() const {
  OBS_SPAN("study/headline");
  Headline h;
  // Peak / trough of total active devices (Fig. 1's 32,019 -> 4,973).
  const auto rows = ActiveDevicesPerDay();
  for (const ActiveDevicesRow& row : rows) {
    h.peak_active_devices = std::max(h.peak_active_devices, row.total);
    if (row.day >= ctx_.shutdown_day() &&
        (h.trough_active_devices == 0 || row.total < h.trough_active_devices)) {
      h.trough_active_devices = row.total;
    }
  }
  h.post_shutdown_users = ctx_.post_shutdown().size();
  h.international_devices = ctx_.split().num_international;
  h.international_share =
      ctx_.post_shutdown().empty()
          ? 0.0
          : static_cast<double>(ctx_.split().num_international) /
                static_cast<double>(ctx_.post_shutdown().size());

  // Traffic increase (post-shutdown users): mean daily bytes Apr+May vs Feb,
  // and distinct sites per device per month. The flow scan shards into
  // per-chunk partial sums and (device, domain) sets; partials fold in chunk
  // order, and set sizes are union-order independent. Byte totals come from
  // MaskedRangeSumU64 over a per-chunk post-shutdown device mask; the
  // distinct-site sets stay scalar (hash insertion has no kernel shape).
  const Dataset& ds = ctx_.dataset();
  const int feb_days = 29;
  const int apr_start = StudyCalendar::DayIndex(util::CivilDate{2020, 4, 1});
  const int apr_may_days = 61;
  const int may_start = StudyCalendar::DayIndex(util::CivilDate{2020, 5, 1});
  const std::uint32_t feb_end_off = static_cast<std::uint32_t>(feb_days) * kSpd;
  const std::uint32_t apr_start_off = static_cast<std::uint32_t>(apr_start) * kSpd;
  const query::ByteLut post_lut(ds.num_devices(), [&](std::uint32_t dev) {
    return ctx_.IsPostShutdown(static_cast<DeviceIndex>(dev));
  });
  struct Partial {
    double feb_bytes = 0.0;
    double apr_may_bytes = 0.0;
    std::unordered_set<std::uint64_t> seen_feb, seen_apr, seen_may;
  };
  const std::size_t num_flows = ds.num_flows();
  const std::size_t num_chunks =
      util::ThreadPool::NumChunks(num_flows, kFlowGrain);
  std::vector<Partial> shards(num_chunks);
  pool_.ParallelFor(
      num_flows, kFlowGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        Partial& p = shards[chunk];
        const std::size_t len = end - begin;
        std::vector<std::uint8_t> mask(len);
        query::FlagMaskU8(cols_.device.data() + begin, len, post_lut.data(),
                          mask.data());
        p.feb_bytes = static_cast<double>(query::MaskedRangeSumU64(
            cols_.start.data() + begin, cols_.bytes.data() + begin, mask.data(),
            len, 0, feb_end_off));
        p.apr_may_bytes = static_cast<double>(query::MaskedRangeSumU64(
            cols_.start.data() + begin, cols_.bytes.data() + begin, mask.data(),
            len, apr_start_off, std::numeric_limits<std::uint32_t>::max()));
        for (std::size_t i = begin; i < end; ++i) {
          if (!mask[i - begin] || cols_.domain[i] == kNoDomain) continue;
          const int day = static_cast<int>(cols_.start[i] / kSpd);
          const std::uint64_t key =
              (static_cast<std::uint64_t>(cols_.device[i]) << 32) |
              cols_.domain[i];
          if (day < feb_days) {
            p.seen_feb.insert(key);
          } else if (day >= may_start) {
            p.seen_may.insert(key);
          } else if (day >= apr_start) {
            p.seen_apr.insert(key);
          }
        }
      });
  double feb_bytes = 0.0;
  double apr_may_bytes = 0.0;
  std::unordered_set<std::uint64_t> seen_feb, seen_apr, seen_may;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    Partial& p = shards[c];
    feb_bytes += p.feb_bytes;
    apr_may_bytes += p.apr_may_bytes;
    seen_feb.merge(p.seen_feb);
    seen_apr.merge(p.seen_apr);
    seen_may.merge(p.seen_may);
  }
  const double feb_daily = feb_bytes / feb_days;
  const double apr_may_daily = apr_may_bytes / apr_may_days;
  h.traffic_increase = feb_daily > 0.0 ? apr_may_daily / feb_daily - 1.0 : 0.0;

  const double sites_feb = static_cast<double>(seen_feb.size());
  const double sites_apr_may =
      (static_cast<double>(seen_apr.size()) + static_cast<double>(seen_may.size())) /
      2.0;
  h.distinct_sites_increase =
      sites_feb > 0.0 ? sites_apr_may / sites_feb - 1.0 : 0.0;
  return h;
}

}  // namespace lockdown::core
