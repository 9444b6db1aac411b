#include "core/study.h"

#include <algorithm>
#include <cmath>

#include "apps/sessionizer.h"
#include "obs/obs.h"
#include "world/catalog.h"

namespace lockdown::core {

using util::StudyCalendar;
using util::Timestamp;

namespace {

constexpr std::size_t kNumCategories = 7;  // CategoryVolumeRow columns
constexpr std::size_t kNumMonths = 4;      // February..May
constexpr int kFebDays = 29;               // 2020 is a leap year
constexpr int kAprMayDays = 61;
constexpr auto kWeekHours =
    static_cast<std::size_t>(analysis::HourOfWeekSeries::kHours);

// Study-day boundaries the pass compares flows against.
struct Calendar {
  int num_days = static_cast<int>(FigureEngine::kDays);
  int feb_end = StudyCalendar::DayIndex(util::CivilDate{2020, 3, 1});
  int apr_start = StudyCalendar::DayIndex(util::CivilDate{2020, 4, 1});
  int may_start = StudyCalendar::DayIndex(util::CivilDate{2020, 5, 1});
  int jun_start = StudyCalendar::DayIndex(util::CivilDate{2020, 6, 1});
  std::array<Timestamp, 4> week_anchor{};  // Figure 3 Thursdays
  std::array<bool, FigureEngine::kDays> weekend{};  // by study day

  Calendar() {
    for (std::size_t w = 0; w < 4; ++w) {
      week_anchor[w] = util::TimestampOf(StudyCalendar::kFig3Weeks[w]);
    }
    for (std::size_t day = 0; day < weekend.size(); ++day) {
      weekend[day] = util::IsWeekend(
          util::WeekdayOf(StudyCalendar::DateAt(static_cast<int>(day))));
    }
  }

  /// Figure 6/7 month index (0 = February) of a study day; -1 past May.
  [[nodiscard]] int MonthOf(int day) const noexcept {
    if (day >= jun_start) return -1;
    if (day >= may_start) return 3;
    if (day >= apr_start) return 2;
    return day >= feb_end ? 1 : 0;
  }

  /// True if [start, end) overlaps one of the Figure 3 weeks.
  [[nodiscard]] bool InFig3Weeks(Timestamp start, Timestamp end) const noexcept {
    for (const Timestamp anchor : week_anchor) {
      if (start < anchor + 7 * util::kSecondsPerDay && end > anchor) return true;
    }
    return false;
  }
};

const Calendar& Cal() {
  static const Calendar cal;
  return cal;
}

// Maps a flow's service onto its CategoryVolumeRow column: education,
// video conferencing, streaming, social media, gaming, messaging, other.
std::size_t CategoryOf(const world::ServiceCatalog& catalog, net::Ipv4Address ip) {
  const auto svc = catalog.FindByIp(ip);
  if (!svc) return 6;
  switch (catalog.Get(*svc).category) {
    case world::Category::kEducation:
    case world::Category::kEmailCloud:
      return 0;
    case world::Category::kVideoConferencing:
      return 1;
    case world::Category::kStreaming:
    case world::Category::kMusic:
      return 2;
    case world::Category::kSocialMedia:
      return 3;
    case world::Category::kGamingPc:
    case world::Category::kGamingConsole:
      return 4;
    case world::Category::kMessaging:
      return 5;
    default:
      return 6;
  }
}

// Appends `bytes` to a (day, bytes) run list, extending the last run when
// the day repeats (a device's flows are time-sorted, so days never
// decrease).
void AddRun(std::vector<std::pair<int, std::uint64_t>>& runs, int day,
            std::uint64_t bytes) {
  if (!runs.empty() && runs.back().first == day) {
    runs.back().second += bytes;
  } else {
    runs.emplace_back(day, bytes);
  }
}

// Spreads every flow of `flows` that starts on a study day in [lo, hi]
// (within [0, kDays)) over the hours of day it spans, into the weekday or
// weekend profile. Timestamps are non-negative, so the hour of day is the
// remainder arithmetic util::HourOf's civil conversion reduces to.
void AddDiurnal(std::span<const Flow> flows, int lo, int hi, const Calendar& cal,
                FigureEngine::DiurnalShapeResult& out) {
  for (const Flow& f : flows) {
    const int day = Dataset::DayOf(f);
    if (day < lo || day > hi) continue;
    auto& profile = cal.weekend[static_cast<std::size_t>(day)] ? out.weekend : out.weekday;
    StudyContext::SpreadOverHours(f, [&profile](Timestamp t, double bytes) {
      profile[static_cast<std::size_t>((t % util::kSecondsPerDay) /
                                       util::kSecondsPerHour)] += bytes;
    });
  }
}

}  // namespace

// The exact integer aggregates: one per pass chunk, folded in chunk order.
struct FigureEngine::Grids {
  std::array<std::uint64_t, kDays * kNumReportClasses> fig2_bytes{};
  std::array<std::uint64_t, kDays * kNumReportClasses> fig2_devices{};
  std::array<std::uint64_t, kDays> zoom{};
  std::array<std::uint64_t, kDays> gameplay{};
  std::array<std::uint64_t, kDays * kNumCategories> category{};
  std::uint64_t feb_bytes = 0;
  std::uint64_t apr_may_bytes = 0;
  SwitchCounts switches;

  void Add(const Grids& o) {
    const auto add = [](auto& dst, const auto& src) {
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
    };
    add(fig2_bytes, o.fig2_bytes);
    add(fig2_devices, o.fig2_devices);
    add(zoom, o.zoom);
    add(gameplay, o.gameplay);
    add(category, o.category);
    feb_bytes += o.feb_bytes;
    apr_may_bytes += o.apr_may_bytes;
    switches.active_february += o.switches.active_february;
    switches.active_post_shutdown += o.switches.active_post_shutdown;
    switches.new_in_april_may += o.switches.new_in_april_may;
  }
};

// One chunk's per-device working set, reused across the chunk's devices.
struct FigureEngine::Scratch {
  explicit Scratch(std::size_t num_domains) : site_seen(num_domains * 3, 0) {}

  DeviceOffers offers;
  std::vector<std::pair<int, std::uint64_t>> day_bytes;    // Figures 1, 2
  std::vector<std::pair<int, std::uint64_t>> day_nonzoom;  // Figure 4
  std::array<double, 4 * kWeekHours> week_volume{};        // Figure 3
  std::array<std::vector<apps::FlowInterval>, kNumMonths> fb_family;
  std::array<std::vector<apps::FlowInterval>, kNumMonths> tiktok;
  std::array<std::uint64_t, kNumMonths> steam_bytes{};
  std::array<std::uint64_t, kNumMonths> steam_conns{};
  /// (domain, site period) -> 1 + the last device that offered it.
  std::vector<DeviceIndex> site_seen;
};

FigureEngine::FigureEngine(const Dataset& dataset,
                           const world::ServiceCatalog& catalog, int threads)
    : pool_(util::ResolveThreadCount(threads)), ctx_(dataset, catalog, pool_) {}

FigureEngine::~FigureEngine() = default;

void FigureEngine::RunPass(std::size_t grain) {
  const std::size_t n = ctx_.dataset().num_devices();
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, grain);
  std::vector<Grids> chunk_grids(num_chunks);
  BeginPass(num_chunks);
  pool_.ParallelFor(n, grain, [&](std::size_t chunk, std::size_t begin,
                                  std::size_t end) {
    Scratch scratch(ctx_.dataset().num_domains());
    for (std::size_t dev = begin; dev < end; ++dev) {
      if (ProcessDevice(static_cast<DeviceIndex>(dev), scratch, chunk_grids[chunk])) {
        Absorb(chunk, scratch.offers);
      }
    }
  });
  EndPass();
  auto grids = std::make_unique<Grids>();
  for (const Grids& g : chunk_grids) grids->Add(g);
  grids_ = std::move(grids);
  grid_bytes_ = (num_chunks + 1) * sizeof(Grids);
}

bool FigureEngine::ProcessDevice(DeviceIndex dev, Scratch& s, Grids& g) {
  const auto flows = ctx_.dataset().FlowsOfDevice(dev);
  if (flows.empty()) return false;
  s.offers.device = dev;
  s.offers.values.clear();
  s.offers.keys.clear();
  const Calendar& cal = Cal();
  const ReportClass rc = ctx_.report_class(dev);
  const bool post = ctx_.IsPostShutdown(dev);
  const bool intl = ctx_.split().international[dev];
  // "We analyze only mobile traffic" (§5.2).
  const bool mobile = post && rc == ReportClass::kMobile;
  // Figure 4 groups: "We consider mobile and desktop devices separately
  // from unclassified devices, and exclude IoT devices here" (caption).
  int group = -1;
  if (post && (rc == ReportClass::kMobile || rc == ReportClass::kLaptopDesktop)) {
    group = intl ? 0 : 1;
  } else if (post && rc == ReportClass::kUnclassified) {
    group = intl ? 2 : 3;
  }
  // A device's flows are time-sorted, so its activity span is its first and
  // last flow. Figure 8 follows Switches active in both February and May.
  const int first_day = Dataset::DayOf(flows.front());
  const int last_day = Dataset::DayOf(flows.back());
  const bool is_switch = ctx_.IsSwitchDevice(dev);
  const bool gameplay =
      is_switch && first_day < cal.feb_end && last_day >= cal.may_start;
  bool spread = false;
  s.day_bytes.clear();
  s.day_nonzoom.clear();

  for (const Flow& f : flows) {
    const int day = Dataset::DayOf(f);
    const auto d = static_cast<std::size_t>(day);
    const std::uint64_t bytes = f.total_bytes();
    const bool in_window = day < cal.num_days;
    if (in_window) AddRun(s.day_bytes, day, bytes);
    if (post) {
      if (day < kFebDays) {
        g.feb_bytes += bytes;
      } else if (day >= cal.apr_start) {
        g.apr_may_bytes += bytes;
      }
      if (in_window) {
        if (ctx_.IsZoomFlow(f)) {
          g.zoom[d] += bytes;  // "we exclude Zoom traffic" from Fig. 4
        } else if (group >= 0) {
          AddRun(s.day_nonzoom, day, bytes);
        }
        g.category[d * kNumCategories + CategoryOf(ctx_.catalog(), f.server_ip)] +=
            bytes;
      }
    }

    // Figure 3: spread the bytes over the hours the flow spans.
    const Timestamp start = Dataset::StartOf(f);
    const Timestamp end =
        start + std::max<Timestamp>(static_cast<Timestamp>(f.duration_s), 1);
    if (cal.InFig3Weeks(start, end)) {
      spread = true;
      StudyContext::SpreadOverHours(f, [&](Timestamp t, double b) {
        for (std::size_t w = 0; w < 4; ++w) {
          const auto bin = analysis::HourOfWeekSeries::BinOf(t, cal.week_anchor[w]);
          if (bin) s.week_volume[w * kWeekHours + static_cast<std::size_t>(*bin)] += b;
        }
      });
    }

    if (f.domain == kNoDomain) continue;
    const StudyContext::DomainFlags& flags = ctx_.domain_flags(f.domain);
    if (gameplay && flags.nintendo_gameplay && in_window) g.gameplay[d] += bytes;
    if (!post) continue;

    // Headline distinct sites: one key per (device, domain, period).
    int period = -1;
    if (day < kFebDays) {
      period = 0;
    } else if (day >= cal.may_start) {
      period = 2;
    } else if (day >= cal.apr_start) {
      period = 1;
    }
    if (period >= 0) {
      DeviceIndex& seen = s.site_seen[std::size_t{f.domain} * 3 +
                                      static_cast<std::size_t>(period)];
      if (seen != dev + 1) {
        seen = dev + 1;
        const auto counter = static_cast<std::uint32_t>(kSiteCounters) +
                             static_cast<std::uint32_t>(period);
        s.offers.keys.emplace_back(counter, (std::uint64_t{dev} << 32) | f.domain);
      }
    }

    // Figures 6 and 7: month-bucketed app traffic.
    const bool social = mobile && (flags.fb_family || flags.tiktok);
    if (!flags.steam && !social) continue;
    const int month = cal.MonthOf(day);
    if (month < 0) continue;
    const auto m = static_cast<std::size_t>(month);
    if (flags.steam) {
      s.steam_bytes[m] += bytes;
      ++s.steam_conns[m];
    }
    if (social) {
      const apps::FlowInterval iv{start, end, f.domain, bytes};
      if (flags.fb_family) s.fb_family[m].push_back(iv);
      if (flags.tiktok) s.tiktok[m].push_back(iv);
    }
  }

  // Figures 1 and 2: one key per active (day, class), one value per day
  // with traffic.
  const auto rci = static_cast<std::size_t>(rc);
  for (const auto& [day, bytes] : s.day_bytes) {
    const std::size_t cell = static_cast<std::size_t>(day) * kNumReportClasses + rci;
    s.offers.keys.emplace_back(static_cast<std::uint32_t>(cell), dev);
    if (bytes == 0) continue;
    g.fig2_bytes[cell] += bytes;
    ++g.fig2_devices[cell];
    s.offers.values.emplace_back(kFig2Cells + cell, static_cast<double>(bytes));
  }
  // Figure 3 medians only devices with substantive traffic in an hour.
  if (spread) {
    for (std::size_t i = 0; i < s.week_volume.size(); ++i) {
      if (s.week_volume[i] >= kMinHourBytes) {
        s.offers.values.emplace_back(kFig3Cells + i, s.week_volume[i]);
      }
    }
    s.week_volume.fill(0.0);
  }
  for (const auto& [day, bytes] : s.day_nonzoom) {
    if (bytes == 0) continue;
    const auto cell = static_cast<std::size_t>(day * 4 + group);
    s.offers.values.emplace_back(kFig4Cells + cell, static_cast<double>(bytes));
  }
  const std::size_t bucket = intl ? 1 : 0;
  for (std::size_t m = 0; post && m < kNumMonths; ++m) {
    // Figure 6: one pass over the Facebook-family sessions resolves each to
    // Facebook or Instagram.
    std::array<double, 3> hours{};  // Facebook, Instagram, TikTok
    for (const apps::Session& session :
         apps::MergeSessions(std::move(s.fb_family[m]))) {
      const apps::SocialApp app = ctx_.social().ClassifySession(
          session, [this](std::uint32_t tag) { return dataset().DomainName(tag); });
      hours[static_cast<std::size_t>(app)] += session.duration_s() / 3600.0;
    }
    for (const apps::Session& session : apps::MergeSessions(std::move(s.tiktok[m]))) {
      hours[2] += session.duration_s() / 3600.0;
    }
    s.fb_family[m].clear();
    s.tiktok[m].clear();
    for (std::size_t app = 0; app < 3; ++app) {
      if (hours[app] > 0.0) {
        s.offers.values.emplace_back(kFig6Cells + (app * kNumMonths + m) * 2 + bucket,
                                     hours[app]);
      }
    }
    // Figure 7: bytes and connections of Steam-visiting cohort devices.
    if (s.steam_conns[m] > 0) {
      const std::size_t cell = kFig7Cells + (m * 2 + bucket) * 2;
      s.offers.values.emplace_back(cell, static_cast<double>(s.steam_bytes[m]));
      s.offers.values.emplace_back(cell + 1, static_cast<double>(s.steam_conns[m]));
    }
    s.steam_bytes[m] = 0;
    s.steam_conns[m] = 0;
  }
  if (is_switch) {
    g.switches.active_february += first_day < cal.feb_end ? 1 : 0;
    g.switches.active_post_shutdown += last_day >= ctx_.post_shutdown_day() ? 1 : 0;
    g.switches.new_in_april_may += first_day >= cal.apr_start ? 1 : 0;
  }
  return true;
}

double FigureEngine::MedianOf(std::size_t cell) const {
  std::vector<double> values = Population(cell);
  return analysis::PercentileInPlace(values, 50.0);
}

std::vector<double> FigureEngine::Medians(std::size_t first, std::size_t count) const {
  std::vector<double> medians(count);
  pool_.ParallelFor(count, kCellGrain,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        medians[i] = MedianOf(first + i);
                      }
                    });
  return medians;
}

std::vector<FigureEngine::BytesPerDeviceRow> FigureEngine::BytesPerDevicePerDay()
    const {
  const std::vector<double> medians = Medians(kFig2Cells, kDays * kNumReportClasses);
  std::vector<BytesPerDeviceRow> rows(kDays);
  for (std::size_t day = 0; day < kDays; ++day) {
    BytesPerDeviceRow& row = rows[day];
    row.day = static_cast<int>(day);
    for (std::size_t c = 0; c < kNumReportClasses; ++c) {
      const std::size_t cell = day * kNumReportClasses + c;
      const std::uint64_t devices = grids_->fig2_devices[cell];
      row.mean[c] = devices == 0 ? 0.0
                                 : static_cast<double>(grids_->fig2_bytes[cell]) /
                                       static_cast<double>(devices);
      row.median[c] = medians[cell];
    }
  }
  return rows;
}

FigureEngine::HourOfWeekResult FigureEngine::HourOfWeekVolume() const {
  const std::vector<double> medians = Medians(kFig3Cells, 4 * kWeekHours);
  HourOfWeekResult result;
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t h = 0; h < kWeekHours; ++h) {
      result.weeks[w].AddBin(static_cast<int>(h), medians[w * kWeekHours + h]);
    }
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

std::vector<FigureEngine::Fig4Row> FigureEngine::MedianBytesExcludingZoom() const {
  const std::vector<double> medians = Medians(kFig4Cells, kDays * 4);
  std::vector<Fig4Row> rows(kDays);
  for (std::size_t day = 0; day < kDays; ++day) {
    Fig4Row& row = rows[day];
    row.day = static_cast<int>(day);
    row.intl_mobile_desktop = medians[day * 4 + 0];
    row.dom_mobile_desktop = medians[day * 4 + 1];
    row.intl_unclassified = medians[day * 4 + 2];
    row.dom_unclassified = medians[day * 4 + 3];
  }
  return rows;
}

analysis::DailySeries FigureEngine::ZoomDailyBytes() const {
  analysis::DailySeries series;
  for (std::size_t d = 0; d < kDays; ++d) {
    series.AddDay(static_cast<int>(d), static_cast<double>(grids_->zoom[d]));
  }
  return series;
}

FigureEngine::SocialBox FigureEngine::SocialDurations(apps::SocialApp app,
                                                      int month) const {
  if (month < 2 || month > 5) return {};
  const std::size_t cell =
      kFig6Cells + (static_cast<std::size_t>(app) * kNumMonths +
                    static_cast<std::size_t>(month - 2)) * 2;
  return SocialBox{analysis::ComputeBoxStats(Population(cell)),
                   analysis::ComputeBoxStats(Population(cell + 1))};
}

FigureEngine::SteamBox FigureEngine::SteamUsage(int month) const {
  if (month < 2 || month > 5) return {};
  const std::size_t dom = kFig7Cells + static_cast<std::size_t>(month - 2) * 4;
  const std::size_t intl = dom + 2;
  return SteamBox{analysis::ComputeBoxStats(Population(dom)),
                  analysis::ComputeBoxStats(Population(intl)),
                  analysis::ComputeBoxStats(Population(dom + 1)),
                  analysis::ComputeBoxStats(Population(intl + 1))};
}

analysis::DailySeries FigureEngine::SwitchGameplayDaily(int ma_window) const {
  analysis::DailySeries series;
  for (std::size_t d = 0; d < kDays; ++d) {
    series.AddDay(static_cast<int>(d), static_cast<double>(grids_->gameplay[d]));
  }
  return series.MovingAverage(ma_window);
}

FigureEngine::SwitchCounts FigureEngine::CountSwitches() const {
  return grids_->switches;
}

std::vector<FigureEngine::CategoryVolumeRow> FigureEngine::CategoryVolumes() const {
  std::vector<CategoryVolumeRow> rows(kDays);
  for (std::size_t day = 0; day < kDays; ++day) {
    const auto* v = grids_->category.data() + day * kNumCategories;
    const auto at = [v](std::size_t k) { return static_cast<double>(v[k]); };
    rows[day] = CategoryVolumeRow{static_cast<int>(day), at(0), at(1), at(2),
                                  at(3), at(4), at(5), at(6)};
  }
  return rows;
}

FigureEngine::DiurnalShapeResult FigureEngine::DiurnalShape(int first_day,
                                                            int last_day) const {
  OBS_SPAN("study/diurnal");
  const int lo = std::max(first_day, 0);
  const int hi = std::min(last_day, StudyCalendar::NumDays() - 1);
  const auto flows = ctx_.dataset().flows();
  const std::size_t num_chunks = util::ThreadPool::NumChunks(flows.size(), kFlowGrain);
  std::vector<DiurnalShapeResult> shards(num_chunks);
  const Calendar& cal = Cal();
  if (lo <= hi) {
    pool_.ParallelFor(flows.size(), kFlowGrain,
                      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                        AddDiurnal(flows.subspan(begin, end - begin), lo, hi,
                                   cal, shards[chunk]);
                      });
  }
  DiurnalShapeResult result;
  for (const DiurnalShapeResult& shard : shards) {
    for (std::size_t h = 0; h < 24; ++h) {
      result.weekday[h] += shard.weekday[h];
      result.weekend[h] += shard.weekend[h];
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

FigureEngine::Headline FigureEngine::HeadlineStats() const {
  Headline h;
  // Peak / trough of total active devices (Fig. 1's 32,019 -> 4,973).
  double peak = 0.0;
  double trough = 0.0;
  for (int day = 0; day < static_cast<int>(kDays); ++day) {
    double total = 0.0;
    for (int c = 0; c < kNumReportClasses; ++c) {
      total += ActiveDevices(day, static_cast<ReportClass>(c));
    }
    peak = std::max(peak, total);
    if (day >= ctx_.shutdown_day() && (trough == 0.0 || total < trough)) {
      trough = total;
    }
  }
  h.peak_active_devices = static_cast<int>(std::llround(peak));
  h.trough_active_devices = static_cast<int>(std::llround(trough));
  h.post_shutdown_users = ctx_.post_shutdown().size();
  h.international_devices = ctx_.split().num_international;
  h.international_share =
      ctx_.post_shutdown().empty()
          ? 0.0
          : static_cast<double>(ctx_.split().num_international) /
                static_cast<double>(ctx_.post_shutdown().size());

  // Post-shutdown users: mean daily bytes Apr+May vs Feb, and distinct
  // sites per device per month.
  const double feb_daily = static_cast<double>(grids_->feb_bytes) / kFebDays;
  const double apr_may_daily = static_cast<double>(grids_->apr_may_bytes) / kAprMayDays;
  h.traffic_increase = feb_daily > 0.0 ? apr_may_daily / feb_daily - 1.0 : 0.0;
  const double sites_feb = Count(kSiteCounters);
  const double sites_apr_may =
      (Count(kSiteCounters + 1) + Count(kSiteCounters + 2)) / 2.0;
  h.distinct_sites_increase =
      sites_feb > 0.0 ? sites_apr_may / sites_feb - 1.0 : 0.0;
  return h;
}

// --- The exact policy ---------------------------------------------------------

LockdownStudy::LockdownStudy(const Dataset& dataset,
                             const world::ServiceCatalog& catalog, int threads)
    : FigureEngine(dataset, catalog, threads) {
  OBS_SPAN("study/pass");
  RunPass(kDeviceGrain);
}

std::vector<LockdownStudy::ActiveDevicesRow> LockdownStudy::ActiveDevicesPerDay()
    const {
  std::vector<ActiveDevicesRow> rows(kDays);
  for (std::size_t day = 0; day < kDays; ++day) {
    ActiveDevicesRow& row = rows[day];
    row.day = static_cast<int>(day);
    for (std::size_t c = 0; c < kNumReportClasses; ++c) {
      row.by_class[c] = static_cast<int>(counts_[day * kNumReportClasses + c]);
      row.total += row.by_class[c];
    }
  }
  return rows;
}

void LockdownStudy::BeginPass(std::size_t num_chunks) {
  chunks_.assign(num_chunks, Chunk{{}, std::vector<std::uint64_t>(kNumCounters, 0)});
}

void LockdownStudy::Absorb(std::size_t chunk, const DeviceOffers& offers) {
  Chunk& c = chunks_[chunk];
  c.values.insert(c.values.end(), offers.values.begin(), offers.values.end());
  for (const auto& key : offers.keys) ++c.counts[key.first];
}

void LockdownStudy::EndPass() {
  // Counting sort by cell. Chunks fold in chunk order and a chunk holds its
  // devices in ascending order, so every cell lists its values in device
  // order — the order the figure statistics sum in.
  offsets_.assign(kNumPopulations + 1, 0);
  counts_.assign(kNumCounters, 0);
  for (const Chunk& c : chunks_) {
    for (const auto& value : c.values) ++offsets_[value.first + 1];
    for (std::size_t k = 0; k < kNumCounters; ++k) counts_[k] += c.counts[k];
  }
  for (std::size_t cell = 0; cell < kNumPopulations; ++cell) {
    offsets_[cell + 1] += offsets_[cell];
  }
  values_.resize(offsets_.back());
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (const Chunk& c : chunks_) {
    for (const auto& [cell, value] : c.values) values_[next[cell]++] = value;
  }
  chunks_ = {};
}

std::vector<double> LockdownStudy::Population(std::size_t cell) const {
  const auto first = values_.begin() + static_cast<std::ptrdiff_t>(offsets_[cell]);
  const auto last = values_.begin() + static_cast<std::ptrdiff_t>(offsets_[cell + 1]);
  return {first, last};
}

double LockdownStudy::Count(std::size_t counter) const {
  return static_cast<double>(counts_[counter]);
}

}  // namespace lockdown::core
