#include "sim/activity.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "sim/parameters.h"
#include "sim/timeline.h"

namespace lockdown::sim {

namespace p = params;
using util::StudyCalendar;
using util::Timestamp;
using world::Category;
using world::ServiceId;

namespace {

/// Month index for the parameter tables: 0=Feb .. 3=May.
int MonthIndex(int day) {
  return std::clamp(PandemicTimeline::MonthOf(day) - 2, 0, 3);
}

double ClampMinutes(double m, double lo, double hi) { return std::clamp(m, lo, hi); }

Timestamp DayStart(int day) {
  return StudyCalendar::StartTs() + static_cast<Timestamp>(day) * util::kSecondsPerDay;
}

}  // namespace

ActivityModel::ActivityModel(const world::ServiceCatalog& catalog)
    : catalog_(&catalog) {
  const auto need = [&](std::string_view name) -> ServiceId {
    const auto id = catalog.FindByName(name);
    if (!id) throw std::invalid_argument("ActivityModel: catalog lacks service " +
                                         std::string(name));
    return *id;
  };
  zoom_ = need("zoom");
  zoom_media_ = need("zoom-media");
  zoom_media_legacy_ = need("zoom-media-legacy");
  facebook_ = need("facebook");
  instagram_ = need("instagram");
  tiktok_ = need("tiktok");
  steam_ = need("steam");
  nintendo_gameplay_ = need("nintendo-gameplay");
  nintendo_services_ = need("nintendo-services");
  playstation_ = need("playstation");
  spotify_ = need("spotify");
  youtube_ = need("youtube");
  netflix_ = need("netflix");
  whatsapp_ = need("whatsapp");
  discord_ = need("discord");
  apple_ = need("apple");
  canvas_ = need("canvas");
  gradescope_ = need("gradescope");
  piazza_ = need("piazza");
  gworkspace_ = need("google-workspace");
  github_ = need("github");
  stackoverflow_ = need("stackoverflow");

  for (ServiceId id = 0; id < catalog.size(); ++id) {
    const world::Service& svc = catalog.Get(id);
    const bool foreign = svc.country != "US" && svc.country != "NL";
    switch (svc.category) {
      case Category::kSocialMedia:
        if (svc.country == "US" && id != facebook_ && id != instagram_ &&
            id != tiktok_) {
          us_social_light_.push_back(id);
        }
        if (foreign) foreign_[svc.country].social.push_back(id);
        break;
      case Category::kMessaging:
        if (foreign) foreign_[svc.country].messaging.push_back(id);
        break;
      case Category::kStreaming:
        if (svc.country == "US") {
          us_stream_.push_back(id);
        } else {
          foreign_[svc.country].stream.push_back(id);
        }
        break;
      case Category::kWeb:
      case Category::kNews:
      case Category::kShopping:
      case Category::kSearch:
      case Category::kEmailCloud:
      case Category::kMusic:
        if (svc.country == "US") {
          us_browse_.push_back(id);
        } else {
          foreign_[svc.country].browse.push_back(id);
        }
        break;
      case Category::kCdn:
        cdn_pool_.push_back(id);
        break;
      case Category::kIotBackend:
        // TV platforms vs. small-gadget clouds, split by name.
        if (svc.name == "roku" || svc.name == "samsung-tv" || svc.name == "lg-tv") {
          iot_tv_backends_.push_back(id);
        } else {
          iot_small_backends_.push_back(id);
        }
        break;
      case Category::kExcluded:
        // Excluded networks still get browsed (the tap drops them later).
        if (svc.name == "amazon-retail" || svc.name == "twitch") {
          us_browse_.push_back(id);
        }
        break;
      default:
        break;
    }
  }
  us_browse_zipf_.emplace(us_browse_.size(), 0.9);
  for (auto& [cc, pools] : foreign_) {
    if (!pools.browse.empty()) pools.browse_zipf.emplace(pools.browse.size(), 0.9);
  }
}

double ActivityModel::LeisureVolume(const StudentPersona& s, int day) {
  const int m = MonthIndex(day);
  const bool intl = s.residency == Residency::kInternational;
  double vol = intl ? p::kIntlMonthVolume[m] : p::kDomesticMonthVolume[m];
  if (PandemicTimeline::PhaseOf(day) == Phase::kAcademicBreak) {
    // "the volume of traffic increases for international students but remains
    //  stable for domestic students" during break (§4.2, Fig. 4).
    vol *= intl ? 1.6 : 1.05;
  }
  // The lock-down surge is a weekday phenomenon: displaced class-day hours
  // moved online while weekends stayed "relatively unchanged" (§4.1, Fig. 3).
  if (PandemicTimeline::IsShutdown(day) &&
      util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)))) {
    vol = 1.0 + (vol - 1.0) * 0.35;
  }
  return vol * s.activity_scale;
}

Timestamp ActivityModel::SampleStart(int day, util::Pcg32& rng) const {
  const util::Weekday wd = util::WeekdayOf(StudyCalendar::DateAt(day));
  const p::DiurnalProfile& prof =
      util::IsWeekend(wd)
          ? p::kWeekend
          : (PandemicTimeline::IsShutdown(day) ? p::kWeekdayShutdown
                                               : p::kWeekdayPre);
  const auto hour = util::SampleIndex(rng, prof);
  return DayStart(day) + static_cast<Timestamp>(hour) * util::kSecondsPerHour +
         rng.UniformInt(0, util::kSecondsPerHour - 1);
}

Timestamp ActivityModel::SampleSocialStart(int day, util::Pcg32& rng) const {
  const util::Weekday wd = util::WeekdayOf(StudyCalendar::DateAt(day));
  const p::DiurnalProfile& prof =
      util::IsWeekend(wd)
          ? p::kWeekend
          : (PandemicTimeline::IsShutdown(day) ? p::kWeekdayShutdown
                                               : p::kWeekdayPre);
  std::array<double, 24> damped;
  for (std::size_t h = 0; h < damped.size(); ++h) damped[h] = std::sqrt(prof[h]);
  const auto hour = util::SampleIndex(rng, damped);
  return DayStart(day) + static_cast<Timestamp>(hour) * util::kSecondsPerHour +
         rng.UniformInt(0, util::kSecondsPerHour - 1);
}

Timestamp ActivityModel::SampleStartInWindow(int day, int first_hour, int last_hour,
                                             util::Pcg32& rng) {
  const Timestamp lo = DayStart(day) + first_hour * util::kSecondsPerHour;
  const Timestamp hi = DayStart(day) + last_hour * util::kSecondsPerHour - 1;
  return rng.UniformInt(lo, hi);
}

Timestamp ActivityModel::SampleEveningStart(int day, util::Pcg32& rng) {
  // Peak 18:00-23:00 with a tail into the afternoon.
  const int hour = rng.Bernoulli(0.7) ? static_cast<int>(rng.UniformInt(18, 23))
                                      : static_cast<int>(rng.UniformInt(12, 17));
  return DayStart(day) + hour * util::kSecondsPerHour +
         rng.UniformInt(0, util::kSecondsPerHour - 1);
}

SessionPlan ActivityModel::MakeSession(ServiceId svc, int nhosts, Timestamp start,
                                       double minutes, std::uint64_t bytes_down,
                                       util::Pcg32& rng, bool cdn_assets) const {
  static constexpr double kSplit[4] = {0.60, 0.25, 0.10, 0.05};
  const world::Service& service = catalog_->Get(svc);
  const int n = std::clamp<int>(nhosts, 1, static_cast<int>(service.hosts.size()));
  SessionPlan plan;
  plan.start = start;
  plan.minutes = minutes;
  plan.flows.reserve(static_cast<std::size_t>(n) + 1);  // + the CDN flow
  double total_w = 0.0;
  for (int i = 0; i < n; ++i) total_w += kSplit[std::min(i, 3)];
  for (int i = 0; i < n; ++i) {
    FlowPlan f;
    f.host = service.hosts[static_cast<std::size_t>(i)];
    f.service = svc;
    f.bytes_down =
        static_cast<std::uint64_t>(bytes_down * kSplit[std::min(i, 3)] / total_w);
    f.bytes_up = f.bytes_down / 20 + 200;
    if (i == 0) {
      f.start_frac = 0.0;
      f.end_frac = 1.0;
    } else {
      f.start_frac = rng.Uniform(0.0, 0.3);
      f.end_frac = rng.Uniform(0.7, 1.0);
    }
    plan.flows.push_back(f);
  }
  // Real sessions pull static assets from CDN edges near campus. These bytes
  // are why the paper excludes Akamai/AWS/Cloudfront/Optimizely from the
  // geolocation midpoints (§4.2): they reveal the device's location, not the
  // visited site's.
  if (cdn_assets && !cdn_pool_.empty() && rng.Bernoulli(0.5)) {
    const world::ServiceId cdn =
        cdn_pool_[rng.NextBounded(static_cast<std::uint32_t>(cdn_pool_.size()))];
    FlowPlan f;
    f.host = catalog_->Get(cdn).hosts[0];
    f.service = cdn;
    f.bytes_down = plan.flows[0].bytes_down / 2;
    f.bytes_up = f.bytes_down / 50 + 100;
    plan.flows[0].bytes_down -= f.bytes_down;
    f.start_frac = rng.Uniform(0.0, 0.3);
    f.end_frac = rng.Uniform(0.6, 1.0);
    plan.flows.push_back(f);
  }
  return plan;
}

void ActivityModel::PlanSocialApp(const StudentPersona& s, int day, ServiceId app,
                                  util::Pcg32& rng,
                                  std::vector<SessionPlan>& out) const {
  const int m = MonthIndex(day);
  const bool intl = s.residency == Residency::kInternational;
  const p::SocialParams* sp = nullptr;
  double bytes_per_minute = 2.0e6;
  double heavy_mult = 1.0;
  if (app == facebook_) {
    sp = &p::kFacebook;
  } else if (app == instagram_) {
    sp = &p::kInstagram;
    bytes_per_minute = 3.0e6;
  } else {
    sp = &p::kTikTok;
    bytes_per_minute = 5.0e6;
    // Monthly adoption cohort (n= in Fig. 6c grows every month).
    if (s.tiktok_adoption_rank >= p::kTikTokAdoption[m]) return;
    if (s.tiktok_heavy_rank < p::kTikTokHeavyUserShare[m]) {
      heavy_mult = p::kTikTokHeavyMultiplier;
    }
  }
  const double rate = (intl ? sp->rate_intl : sp->rate_dom)[m] * s.activity_scale;
  const int n = rng.Poisson(rate);
  for (int i = 0; i < n; ++i) {
    const double minutes = ClampMinutes(
        rng.LogNormal(sp->dur_mu, sp->dur_sigma) * heavy_mult, 0.3, 480.0);
    const auto bytes = static_cast<std::uint64_t>(
        minutes * bytes_per_minute * rng.Uniform(0.5, 1.6));
    SessionPlan plan =
        MakeSession(app, app == tiktok_ ? 3 : 2, SampleSocialStart(day, rng),
                    minutes, bytes, rng);
    if (app == instagram_) {
      // Instagram also pulls from the shared Facebook CDN — the ambiguity the
      // paper's disambiguation heuristic exists for (§5.2).
      FlowPlan f;
      f.host = catalog_->Get(facebook_).hosts[2];  // fbcdn.net
      f.service = facebook_;
      f.bytes_down = bytes / 4;
      f.bytes_up = f.bytes_down / 20 + 200;
      f.start_frac = rng.Uniform(0.0, 0.3);
      f.end_frac = rng.Uniform(0.7, 1.0);
      plan.flows.push_back(f);
    }
    out.push_back(std::move(plan));
  }
}

void ActivityModel::PlanZoomDay(const StudentPersona& s, int day, util::Pcg32& rng,
                                std::vector<SessionPlan>& out) const {
  // Class attendance does not scale with leisure appetite — Zoom usage is
  // "not significantly different between populations" (§4.2).
  (void)s;
  const util::Weekday wd = util::WeekdayOf(StudyCalendar::DateAt(day));
  const bool weekend = util::IsWeekend(wd);
  double rate = 0.0;
  switch (PandemicTimeline::PhaseOf(day)) {
    case Phase::kPrePandemic: rate = 0.04; break;
    case Phase::kStateOfEmergency: rate = 0.12; break;
    case Phase::kPandemicDeclared:  // winter finals went remote
      rate = weekend ? 0.20 : p::kZoomWeekdaySessionsFinals;
      break;
    case Phase::kStayAtHome: rate = weekend ? 0.20 : 0.6; break;
    case Phase::kAcademicBreak: rate = 0.08; break;
    case Phase::kOnlineTerm:
      rate = weekend ? p::kZoomWeekendSessions : p::kZoomWeekdaySessionsOnline;
      break;
  }
  const int n = rng.Poisson(rate);
  for (int i = 0; i < n; ++i) {
    // Classes run 8am-6pm on weekdays; weekend calls happen in the afternoon
    // ("a small spike in traffic in the afternoon", §5.1).
    const Timestamp start = weekend ? SampleStartInWindow(day, 12, 17, rng)
                                    : SampleStartInWindow(day, 8, 17, rng);
    const double minutes =
        ClampMinutes(rng.Normal(p::kZoomClassMinutesMean, 16.0), 10.0, 180.0);
    const auto total_bytes = static_cast<std::uint64_t>(
        minutes * p::kZoomBytesPerMinute * rng.Uniform(0.6, 1.5));

    SessionPlan plan;
    plan.start = start;
    plan.minutes = minutes;
    // Media rides raw-IP UDP to a relay; only the published IP list can
    // attribute it (§5.1).
    FlowPlan media;
    media.service = rng.Bernoulli(p::kZoomLegacyRelayShare) ? zoom_media_legacy_
                                                            : zoom_media_;
    media.raw_ip = true;
    media.proto = net::Protocol::kUdp;
    media.port = 8801;
    media.bytes_down =
        static_cast<std::uint64_t>(total_bytes * p::kZoomMediaShare);
    media.bytes_up = media.bytes_down / 3;  // two-way video
    plan.flows.push_back(media);
    // Signalling and web assets via zoom.us domains.
    const world::Service& zoom = catalog_->Get(zoom_);
    for (int h = 0; h < 2; ++h) {
      FlowPlan f;
      f.host = zoom.hosts[static_cast<std::size_t>(h)];
      f.service = zoom_;
      f.bytes_down = static_cast<std::uint64_t>(
          total_bytes * (1.0 - p::kZoomMediaShare) * (h == 0 ? 0.7 : 0.3));
      f.bytes_up = f.bytes_down / 10 + 500;
      f.start_frac = h == 0 ? 0.0 : rng.Uniform(0.0, 0.2);
      f.end_frac = h == 0 ? 1.0 : rng.Uniform(0.8, 1.0);
      plan.flows.push_back(f);
    }
    out.push_back(std::move(plan));
  }
}

void ActivityModel::AddBrowsing(const StudentPersona& s, int day,
                                double mean_sessions, double bytes_per_minute,
                                util::Pcg32& rng,
                                std::vector<SessionPlan>& out) const {
  const int m = MonthIndex(day);
  const double vol = LeisureVolume(s, day);
  const int n =
      rng.Poisson(mean_sessions * p::kSiteBreadth[m] * std::sqrt(vol));
  for (int i = 0; i < n; ++i) {
    ServiceId svc;
    const auto it = foreign_.find(std::string(s.home_country));
    if (it != foreign_.end() && !it->second.browse.empty() &&
        rng.Bernoulli(s.foreign_share)) {
      const auto& pools = it->second;
      svc = pools.browse[pools.browse_zipf->Sample(rng)];
    } else {
      svc = us_browse_[us_browse_zipf_->Sample(rng)];
    }
    const double minutes = ClampMinutes(rng.LogNormal(0.7, 0.9), 0.2, 60.0);
    const auto bytes = static_cast<std::uint64_t>(
        minutes * bytes_per_minute * rng.Uniform(0.4, 2.0) * std::sqrt(vol));
    out.push_back(MakeSession(svc, 2, SampleStart(day, rng), minutes, bytes, rng));
  }
}

void ActivityModel::AddStreaming(const StudentPersona& s, int day,
                                 double mean_sessions, double bytes_per_minute,
                                 util::Pcg32& rng,
                                 std::vector<SessionPlan>& out) const {
  const double vol = LeisureVolume(s, day);
  const int n = rng.Poisson(mean_sessions * vol);
  for (int i = 0; i < n; ++i) {
    ServiceId svc;
    const auto it = foreign_.find(std::string(s.home_country));
    // Home-country video weighs even more than general browsing for
    // international students (it is what keeps their geolocation midpoint
    // abroad despite US-hosted gaming and coursework).
    if (it != foreign_.end() && !it->second.stream.empty() &&
        rng.Bernoulli(std::min(1.0, s.foreign_share + 0.15))) {
      const auto& pool = it->second.stream;
      svc = pool[rng.NextBounded(static_cast<std::uint32_t>(pool.size()))];
    } else {
      svc = us_stream_[rng.NextBounded(static_cast<std::uint32_t>(us_stream_.size()))];
    }
    const double minutes = ClampMinutes(rng.LogNormal(3.55, 0.7), 5.0, 300.0);
    const auto bytes = static_cast<std::uint64_t>(
        minutes * bytes_per_minute * rng.Uniform(0.6, 1.5));
    out.push_back(
        MakeSession(svc, 2, SampleEveningStart(day, rng), minutes, bytes, rng));
  }
}

void ActivityModel::PlanSteamDay(const StudentPersona& s, int day, util::Pcg32& rng,
                                 std::vector<SessionPlan>& out) const {
  const int m = MonthIndex(day);
  const bool intl = s.residency == Residency::kInternational;
  if (!s.uses_steam) {
    // Casual store visits drive Fig. 7's growing n= without moving medians up.
    const double monthly = p::kSteamCasualVisitProb[m];
    const double p_day = -std::log(1.0 - monthly) / 30.0;
    if (rng.Bernoulli(p_day)) {
      const double minutes = rng.Uniform(2.0, 8.0);
      out.push_back(MakeSession(steam_, 2, SampleEveningStart(day, rng), minutes,
                                static_cast<std::uint64_t>(rng.Uniform(2e6, 1e7)),
                                rng));
    }
    return;
  }
  const double hours_mult =
      (intl ? p::kSteamHoursIntl : p::kSteamHoursDom)[m];
  const double conns_mult =
      (intl ? p::kSteamConnsIntl : p::kSteamConnsDom)[m];
  if (!rng.Bernoulli(std::min(0.9, 0.45 * std::sqrt(hours_mult)))) return;
  const int n_sessions = 1 + rng.Poisson(0.5 * hours_mult);
  for (int i = 0; i < n_sessions; ++i) {
    const double minutes = ClampMinutes(
        rng.LogNormal(std::log(55.0 * std::sqrt(hours_mult)), 0.7), 10.0, 420.0);
    const auto bytes = static_cast<std::uint64_t>(
        minutes * 2.0e5 * rng.Uniform(0.5, 1.6));
    const int nflows = 1 + rng.Poisson(2.2 * conns_mult);
    SessionPlan plan = MakeSession(steam_, std::min(nflows, 5),
                                   SampleEveningStart(day, rng), minutes, bytes, rng);
    // Extra coordinator connections beyond distinct hosts (games reconnect).
    for (int f = 5; f < nflows; ++f) {
      FlowPlan extra = plan.flows[static_cast<std::size_t>(f % 3)];
      extra.bytes_down = 20000 + rng.NextBounded(200000);
      extra.bytes_up = extra.bytes_down / 10;
      extra.start_frac = rng.Uniform(0.0, 0.8);
      extra.end_frac = std::min(1.0, extra.start_frac + rng.Uniform(0.05, 0.2));
      plan.flows.push_back(extra);
    }
    out.push_back(std::move(plan));
  }
  if (rng.Bernoulli(p::kSteamDownloadProb[m])) {
    // Game download: huge bytes, few connections — the bytes-vs-connections
    // divergence the paper remarks on (§5.3.1).
    const auto bytes = static_cast<std::uint64_t>(
        std::min(rng.LogNormal(std::log(1.5e9), 0.9), 2e10));
    const double minutes = static_cast<double>(bytes) / 1.5e9;  // ~25 MB/s
    SessionPlan plan;
    plan.start = SampleEveningStart(day, rng);
    plan.minutes = std::max(minutes, 2.0);
    FlowPlan f;
    f.host = catalog_->Get(steam_).hosts[2];  // steamcontent.com
    f.service = steam_;
    f.bytes_down = bytes;
    f.bytes_up = bytes / 100;
    plan.flows.push_back(f);
    out.push_back(std::move(plan));
  }
}

void ActivityModel::PlanPhone(const StudentPersona& s, const SimDevice& d, int day,
                              util::Pcg32& rng,
                              std::vector<SessionPlan>& out) const {
  if (s.uses_facebook) PlanSocialApp(s, day, facebook_, rng, out);
  if (s.uses_instagram) PlanSocialApp(s, day, instagram_, rng, out);
  if (s.uses_tiktok) PlanSocialApp(s, day, tiktok_, rng, out);

  const double vol = LeisureVolume(s, day);
  // Light US social (snapchat/twitter/reddit/...).
  const int n_social = rng.Poisson(1.3 * std::sqrt(vol));
  for (int i = 0; i < n_social; ++i) {
    const ServiceId svc = us_social_light_[rng.NextBounded(
        static_cast<std::uint32_t>(us_social_light_.size()))];
    const double minutes = ClampMinutes(rng.LogNormal(1.2, 0.9), 0.3, 120.0);
    out.push_back(MakeSession(svc, 2, SampleStart(day, rng), minutes,
                              static_cast<std::uint64_t>(minutes * 1.5e6), rng));
  }
  // Foreign social for international students (weibo/douyin/... §1's
  // "less time on US-based social media" is the flip side of this).
  const auto it = foreign_.find(std::string(s.home_country));
  if (it != foreign_.end() && !it->second.social.empty()) {
    const int n = rng.Poisson(2.2 * s.foreign_share * std::sqrt(vol));
    for (int i = 0; i < n; ++i) {
      const auto& pool = it->second.social;
      const ServiceId svc =
          pool[rng.NextBounded(static_cast<std::uint32_t>(pool.size()))];
      const double minutes = ClampMinutes(rng.LogNormal(1.6, 1.0), 0.3, 240.0);
      out.push_back(MakeSession(svc, 2, SampleStart(day, rng), minutes,
                                static_cast<std::uint64_t>(minutes * 3e6), rng));
    }
  }
  // Messaging.
  const int n_msg = rng.Poisson(2.2);
  for (int i = 0; i < n_msg; ++i) {
    ServiceId svc = rng.Bernoulli(0.5) ? whatsapp_ : discord_;
    if (it != foreign_.end() && !it->second.messaging.empty() &&
        rng.Bernoulli(s.foreign_share)) {
      const auto& pool = it->second.messaging;
      svc = pool[rng.NextBounded(static_cast<std::uint32_t>(pool.size()))];
    }
    const double minutes = ClampMinutes(rng.LogNormal(0.9, 0.8), 0.2, 60.0);
    out.push_back(MakeSession(svc, 1, SampleStart(day, rng), minutes,
                              static_cast<std::uint64_t>(minutes * 2e5), rng));
  }
  // Music + mobile video + browsing.
  if (rng.Bernoulli(0.55)) {
    const double minutes = ClampMinutes(rng.LogNormal(3.2, 0.6), 5.0, 240.0);
    out.push_back(MakeSession(spotify_, 2, SampleStart(day, rng), minutes,
                              static_cast<std::uint64_t>(minutes * 1.0e6), rng));
  }
  AddStreaming(s, day, 0.6, 1.2e7, rng, out);
  AddBrowsing(s, day, 3.0, 1.0e6, rng, out);
  // iPhones sync to iCloud daily — traffic the tap excludes (§3).
  if (d.ua_platform == world::UaPlatform::kIphone && rng.Bernoulli(0.8)) {
    out.push_back(MakeSession(apple_, 2, SampleStart(day, rng), 2.0,
                              static_cast<std::uint64_t>(rng.Uniform(1e6, 2e8)),
                              rng));
  }
}

void ActivityModel::PlanComputer(const StudentPersona& s, const SimDevice& d,
                                 int day, util::Pcg32& rng,
                                 std::vector<SessionPlan>& out) const {
  (void)d;
  PlanZoomDay(s, day, rng, out);
  // Coursework on class days.
  if (PandemicTimeline::ClassesInSession(day) &&
      !util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)))) {
    const bool online = PandemicTimeline::PhaseOf(day) == Phase::kOnlineTerm;
    const int n = rng.Poisson(online ? 3.2 : 2.0);
    static constexpr int kEduCount = 4;
    const ServiceId edu[kEduCount] = {canvas_, gradescope_, piazza_, gworkspace_};
    for (int i = 0; i < n; ++i) {
      const ServiceId svc = edu[rng.NextBounded(kEduCount)];
      const double minutes = ClampMinutes(rng.LogNormal(1.8, 0.8), 1.0, 120.0);
      out.push_back(MakeSession(svc, 1, SampleStartInWindow(day, 8, 22, rng),
                                minutes,
                                static_cast<std::uint64_t>(minutes * 1.5e6), rng));
    }
    if (s.index % 3 == 0) {  // the CS-student third of campus
      const int dev_n = rng.Poisson(1.2);
      for (int i = 0; i < dev_n; ++i) {
        const ServiceId svc = rng.Bernoulli(0.5) ? github_ : stackoverflow_;
        const double minutes = ClampMinutes(rng.LogNormal(1.5, 0.9), 0.5, 90.0);
        out.push_back(MakeSession(svc, 2, SampleStart(day, rng), minutes,
                                  static_cast<std::uint64_t>(minutes * 8e5), rng));
      }
    }
  }
  AddBrowsing(s, day, 5.0, 2.0e6, rng, out);
  AddStreaming(s, day, 0.8, 2.2e7, rng, out);
  PlanSteamDay(s, day, rng, out);
}

void ActivityModel::PlanTablet(const StudentPersona& s, const SimDevice& d, int day,
                               util::Pcg32& rng,
                               std::vector<SessionPlan>& out) const {
  (void)d;
  AddStreaming(s, day, 0.6, 2.0e7, rng, out);
  AddBrowsing(s, day, 2.0, 1.2e6, rng, out);
  if (s.uses_instagram && rng.Bernoulli(0.3)) {
    PlanSocialApp(s, day, instagram_, rng, out);
  }
}

void ActivityModel::PlanIotSmall(const SimDevice& d, int day, util::Pcg32& rng,
                                 std::vector<SessionPlan>& out) const {
  const auto& pool = iot_small_backends_;
  const ServiceId backend =
      pool[static_cast<std::size_t>(d.mac.value() % pool.size())];
  const int heartbeats = 10 + static_cast<int>(rng.NextBounded(14));
  for (int i = 0; i < heartbeats; ++i) {
    SessionPlan plan = MakeSession(
        backend, 1,
        DayStart(day) + rng.UniformInt(0, util::kSecondsPerDay - 120),
        rng.Uniform(0.1, 0.5),
        static_cast<std::uint64_t>(rng.Uniform(2e3, 2e4)), rng,
        /*cdn_assets=*/false);
    plan.flows[0].bytes_up = plan.flows[0].bytes_down * 2;  // telemetry is upload
    out.push_back(std::move(plan));
  }
  if (rng.Bernoulli(0.008)) {  // firmware update
    out.push_back(MakeSession(backend, 2, SampleStart(day, rng), 3.0,
                              static_cast<std::uint64_t>(rng.Uniform(5e6, 8e7)),
                              rng, /*cdn_assets=*/false));
  }
}

void ActivityModel::PlanIotTv(const StudentPersona& s, const SimDevice& d, int day,
                              util::Pcg32& rng,
                              std::vector<SessionPlan>& out) const {
  const auto& pool = iot_tv_backends_;
  const ServiceId backend =
      pool[static_cast<std::size_t>(d.mac.value() % pool.size())];
  for (int i = 0; i < 4; ++i) {
    out.push_back(MakeSession(
        backend, 2, DayStart(day) + rng.UniformInt(0, util::kSecondsPerDay - 120),
        rng.Uniform(0.2, 1.0), static_cast<std::uint64_t>(rng.Uniform(5e3, 5e4)),
        rng, /*cdn_assets=*/false));
  }
  const int m = MonthIndex(day);
  AddStreaming(s, day, 0.7 * p::kStreamingMonth[m] / p::kStreamingMonth[0],
               p::kStreamBytesPerMinute, rng, out);
}

void ActivityModel::PlanSwitch(const SimDevice& d, int day, util::Pcg32& rng,
                               std::vector<SessionPlan>& out) const {
  (void)d;
  const world::Service& services = catalog_->Get(nintendo_services_);
  // Daily connectivity test + telemetry (non-gameplay, filtered out of Fig. 8).
  {
    SessionPlan plan;
    plan.start = DayStart(day) + rng.UniformInt(0, util::kSecondsPerDay - 120);
    plan.minutes = 0.2;
    FlowPlan f;
    f.host = services.hosts[5];  // conntest.nintendowifi.net
    f.service = nintendo_services_;
    f.bytes_down = 2000;
    f.bytes_up = 1000;
    plan.flows.push_back(f);
    out.push_back(std::move(plan));
  }
  if (rng.Bernoulli(0.8)) {
    SessionPlan plan;
    plan.start = DayStart(day) + rng.UniformInt(0, util::kSecondsPerDay - 120);
    plan.minutes = 0.3;
    FlowPlan f;
    f.host = services.hosts[4];  // receive-lp1 telemetry
    f.service = nintendo_services_;
    f.bytes_down = 1500;
    f.bytes_up = 15000;
    plan.flows.push_back(f);
    out.push_back(std::move(plan));
  }

  // Gameplay intensity over the term (§5.3.2, Fig. 8).
  double mult = p::kSwitchPreHours;
  switch (PandemicTimeline::PhaseOf(day)) {
    case Phase::kPrePandemic:
    case Phase::kStateOfEmergency: mult = p::kSwitchPreHours; break;
    case Phase::kPandemicDeclared: mult = 1.2; break;
    case Phase::kStayAtHome: mult = 1.6; break;
    case Phase::kAcademicBreak: mult = p::kSwitchBreakMultiplier; break;
    case Phase::kOnlineTerm: {
      if (day <= 77) {
        mult = p::kSwitchEarlyTermMultiplier;  // 3/30 .. ~4/17
      } else if (day <= 98) {
        mult = p::kSwitchMidTermMultiplier;  // late-April lull
      } else {
        mult = p::kSwitchLateMayMultiplier;  // "rises as boredom kicks in"
      }
      break;
    }
  }
  const int n = rng.Poisson(0.9 * mult);
  for (int i = 0; i < n; ++i) {
    const double minutes = ClampMinutes(rng.LogNormal(std::log(50.0), 0.6), 10.0, 360.0);
    SessionPlan plan = MakeSession(
        nintendo_gameplay_, 2, SampleEveningStart(day, rng), minutes,
        static_cast<std::uint64_t>(minutes * p::kSwitchGameplayBytesPerMinute *
                                   rng.Uniform(0.5, 1.8)),
        rng, /*cdn_assets=*/false);
    for (FlowPlan& f : plan.flows) {
      f.proto = net::Protocol::kUdp;
      f.port = 45000;
      f.bytes_up = f.bytes_down;  // p2p gameplay is symmetric
    }
    out.push_back(std::move(plan));
  }
  // Game/system downloads (non-gameplay). Elevated around the Animal
  // Crossing: New Horizons release on 3/20 (§5.3.2).
  double dl_prob = p::kSwitchDownloadProb;
  if (day >= 47 && day <= 52) dl_prob = 0.35;
  if (rng.Bernoulli(dl_prob)) {
    const auto bytes = static_cast<std::uint64_t>(std::min(
        rng.LogNormal(std::log(p::kSwitchDownloadBytesMean), 0.7), 2e10));
    SessionPlan plan;
    plan.start = SampleEveningStart(day, rng);
    plan.minutes = std::max(static_cast<double>(bytes) / 1.0e9, 2.0);
    FlowPlan f;
    f.host = services.hosts[0];  // atum download CDN
    f.service = nintendo_services_;
    f.bytes_down = bytes;
    f.bytes_up = bytes / 200;
    plan.flows.push_back(f);
    out.push_back(std::move(plan));
  }
}

void ActivityModel::PlanConsoleOther(const SimDevice& d, int day, util::Pcg32& rng,
                                     std::vector<SessionPlan>& out) const {
  (void)d;
  const double mult = PandemicTimeline::IsShutdown(day) ? 1.8 : 1.0;
  const int n = rng.Poisson(0.8 * mult);
  for (int i = 0; i < n; ++i) {
    const double minutes = ClampMinutes(rng.LogNormal(std::log(60.0), 0.6), 10.0, 360.0);
    SessionPlan plan = MakeSession(
        playstation_, 2, SampleEveningStart(day, rng), minutes,
        static_cast<std::uint64_t>(minutes * 2e5 * rng.Uniform(0.5, 1.8)), rng,
        /*cdn_assets=*/false);
    plan.flows[0].proto = net::Protocol::kUdp;
    out.push_back(std::move(plan));
  }
  if (rng.Bernoulli(0.05)) {
    out.push_back(MakeSession(
        playstation_, 1, SampleEveningStart(day, rng), 20.0,
        static_cast<std::uint64_t>(std::min(rng.LogNormal(std::log(8e9), 0.8), 5e10)),
        rng, /*cdn_assets=*/false));
  }
}

void ActivityModel::PlanMiscGadget(const StudentPersona& s, const SimDevice& d,
                                   int day, util::Pcg32& rng,
                                   std::vector<SessionPlan>& out) const {
  if (d.true_class == TrueClass::kMobile) {
    AddBrowsing(s, day, 1.2, 1.0e6, rng, out);
    if (rng.Bernoulli(0.25)) AddStreaming(s, day, 0.5, 1.5e7, rng, out);
  } else {
    // Cloud-sync style chatter with an occasional enormous backup — the
    // mean-vs-median gap Fig. 2 shows for unclassified devices.
    const ServiceId svc = rng.Bernoulli(0.5) ? gworkspace_ : catalog_->FindByName("dropbox").value_or(gworkspace_);
    const int n = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < n; ++i) {
      out.push_back(MakeSession(
          svc, 1, DayStart(day) + rng.UniformInt(0, util::kSecondsPerDay - 120),
          rng.Uniform(0.2, 2.0), static_cast<std::uint64_t>(rng.Uniform(1e4, 2e6)),
          rng));
    }
    if (rng.Bernoulli(0.03)) {
      // The occasional enormous backup/sync: the outliers behind Fig. 2's
      // orders-of-magnitude mean-vs-median gap for unclassified devices.
      out.push_back(MakeSession(
          svc, 1, SampleStart(day, rng), 30.0,
          static_cast<std::uint64_t>(std::min(rng.LogNormal(std::log(8e9), 1.2), 8e10)),
          rng));
    }
  }
}

void ActivityModel::PlanDay(const Population& pop, const SimDevice& dev,
                            int study_day, util::Pcg32& rng,
                            std::vector<SessionPlan>& out) const {
  const StudentPersona& s = pop.student_of(dev);
  switch (dev.kind) {
    case DeviceKind::kPhone: PlanPhone(s, dev, study_day, rng, out); break;
    case DeviceKind::kLaptop:
    case DeviceKind::kDesktop: PlanComputer(s, dev, study_day, rng, out); break;
    case DeviceKind::kTablet: PlanTablet(s, dev, study_day, rng, out); break;
    case DeviceKind::kIotSmall: PlanIotSmall(dev, study_day, rng, out); break;
    case DeviceKind::kIotTv: PlanIotTv(s, dev, study_day, rng, out); break;
    case DeviceKind::kSwitch: PlanSwitch(dev, study_day, rng, out); break;
    case DeviceKind::kConsoleOther: PlanConsoleOther(dev, study_day, rng, out); break;
    case DeviceKind::kMiscGadget: PlanMiscGadget(s, dev, study_day, rng, out); break;
  }
}

}  // namespace lockdown::sim
