// Canonical text rendering of every study output (Figures 1-8, extension
// analyses, headline stats), shared by the golden-figure regression test and
// the differential tests of both aggregator policies. Doubles print with
// %.17g, which round-trips IEEE binary64 exactly, so two renderings are
// equal iff every figure is bit-identical.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/stats.h"
#include "core/pipeline.h"
#include "core/study.h"

namespace lockdown::core::testing {

inline std::string RenderNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
inline std::string RenderNum(int v) { return std::to_string(v); }

inline void RenderBoxLine(std::ostringstream& out, const std::string& tag,
                          const analysis::BoxStats& b) {
  out << tag << '\t' << b.n << '\t' << RenderNum(b.p1) << '\t'
      << RenderNum(b.q1) << '\t' << RenderNum(b.median) << '\t'
      << RenderNum(b.q3) << '\t' << RenderNum(b.p95) << '\t'
      << RenderNum(b.p99) << '\t' << RenderNum(b.mean) << '\n';
}

/// Renders every figure the given study (LockdownStudy or
/// stream::StreamingStudy) computes over the given collection. Without
/// `estimates`, the figures the sketched policy estimates are left out:
/// Figure 1 and the headline's peak/trough device and distinct-site counts.
template <typename Study>
std::string RenderFigures(const CollectionResult& collection, const Study& study,
                          bool estimates = true) {
  const auto Num = [](double v) { return RenderNum(v); };
  std::ostringstream out;
  const auto& st = collection.stats;
  out << "stats\t" << st.raw_flows << '\t' << st.tap_excluded << '\t'
      << st.unattributed << '\t' << st.visitor_flows << '\t'
      << st.devices_observed << '\t' << st.devices_retained << '\t'
      << st.ua_sightings << '\t' << st.ua_unattributed << '\t'
      << st.ua_visitor_dropped << '\n';

  if (estimates) {
    for (const auto& row : study.ActiveDevicesPerDay()) {
      out << "fig1\t" << row.day;
      for (const auto v : row.by_class) out << '\t' << RenderNum(v);
      out << '\t' << RenderNum(row.total) << '\n';
    }
  }
  for (const auto& row : study.BytesPerDevicePerDay()) {
    out << "fig2\t" << row.day;
    for (const double v : row.mean) out << '\t' << Num(v);
    for (const double v : row.median) out << '\t' << Num(v);
    out << '\n';
  }
  const auto f3 = study.HourOfWeekVolume();
  out << "fig3.norm\t" << Num(f3.normalization) << '\n';
  for (std::size_t w = 0; w < f3.weeks.size(); ++w) {
    out << "fig3.week" << w;
    for (int h = 0; h < analysis::HourOfWeekSeries::kHours; ++h) {
      out << '\t' << Num(f3.weeks[w].at(h));
    }
    out << '\n';
  }
  for (const auto& row : study.MedianBytesExcludingZoom()) {
    out << "fig4\t" << row.day << '\t' << Num(row.intl_mobile_desktop) << '\t'
        << Num(row.dom_mobile_desktop) << '\t' << Num(row.intl_unclassified)
        << '\t' << Num(row.dom_unclassified) << '\n';
  }
  const auto f5 = study.ZoomDailyBytes();
  for (int d = 0; d < f5.num_days(); ++d) {
    out << "fig5\t" << d << '\t' << Num(f5.at(d)) << '\n';
  }
  for (int month = 2; month <= 5; ++month) {
    for (const auto& [app, name] :
         {std::pair{apps::SocialApp::kFacebook, "facebook"},
          std::pair{apps::SocialApp::kInstagram, "instagram"},
          std::pair{apps::SocialApp::kTikTok, "tiktok"}}) {
      const auto box = study.SocialDurations(app, month);
      const std::string tag =
          "fig6." + std::string(name) + ".m" + std::to_string(month);
      RenderBoxLine(out, tag + ".dom", box.domestic);
      RenderBoxLine(out, tag + ".intl", box.international);
    }
    const auto steam = study.SteamUsage(month);
    const std::string tag = "fig7.m" + std::to_string(month);
    RenderBoxLine(out, tag + ".dom_bytes", steam.dom_bytes);
    RenderBoxLine(out, tag + ".intl_bytes", steam.intl_bytes);
    RenderBoxLine(out, tag + ".dom_conns", steam.dom_conns);
    RenderBoxLine(out, tag + ".intl_conns", steam.intl_conns);
  }
  const auto f8 = study.SwitchGameplayDaily();
  for (int d = 0; d < f8.num_days(); ++d) {
    out << "fig8\t" << d << '\t' << Num(f8.at(d)) << '\n';
  }
  const auto sw = study.CountSwitches();
  out << "fig8.counts\t" << sw.active_february << '\t'
      << sw.active_post_shutdown << '\t' << sw.new_in_april_may << '\n';
  for (const auto& row : study.CategoryVolumes()) {
    out << "categories\t" << row.day << '\t' << Num(row.education) << '\t'
        << Num(row.video_conferencing) << '\t' << Num(row.streaming) << '\t'
        << Num(row.social_media) << '\t' << Num(row.gaming) << '\t'
        << Num(row.messaging) << '\t' << Num(row.other) << '\n';
  }
  const auto diurnal = study.DiurnalShape(0, util::StudyCalendar::NumDays() - 1);
  out << "diurnal.weekday";
  for (const double v : diurnal.weekday) out << '\t' << Num(v);
  out << "\ndiurnal.weekend";
  for (const double v : diurnal.weekend) out << '\t' << Num(v);
  out << '\n';
  const auto h = study.HeadlineStats();
  out << "headline\t";
  if (estimates) {
    out << h.peak_active_devices << '\t' << h.trough_active_devices << '\t';
  }
  out << h.post_shutdown_users << '\t' << Num(h.traffic_increase) << '\t';
  if (estimates) out << Num(h.distinct_sites_increase) << '\t';
  out << h.international_devices << '\t' << Num(h.international_share) << '\n';
  return out.str();
}

}  // namespace lockdown::core::testing
