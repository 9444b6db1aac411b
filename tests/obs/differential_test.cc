// The zero-perturbation proof (DESIGN.md §10): the entire pipeline — collect,
// process, exact study, sketched study — renders bit-identical figures with
// observability fully enabled (metrics + tracing) and fully disabled, at one
// thread and at several. Doubles print with %.17g, which round-trips IEEE
// binary64, so a single-ulp perturbation anywhere fails the comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "core/study.h"
#include "obs/obs.h"
#include "stream/streaming_study.h"
#include "world/catalog.h"

namespace lockdown::obs {
namespace {

constexpr int kStudents = 40;
constexpr std::uint64_t kSeed = 2020;

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Study>
void RenderBatchFigures(std::ostringstream& out, const Study& study) {
  for (const auto& row : study.ActiveDevicesPerDay()) {
    out << "fig1\t" << row.day << '\t' << row.total << '\n';
  }
  for (const auto& row : study.BytesPerDevicePerDay()) {
    out << "fig2\t" << row.day;
    for (const double v : row.mean) out << '\t' << Num(v);
    for (const double v : row.median) out << '\t' << Num(v);
    out << '\n';
  }
  const auto f3 = study.HourOfWeekVolume();
  out << "fig3\t" << Num(f3.normalization);
  for (const auto& week : f3.weeks) {
    for (int h = 0; h < week.kHours; ++h) out << '\t' << Num(week.at(h));
  }
  out << '\n';
  for (const auto& row : study.MedianBytesExcludingZoom()) {
    out << "fig4\t" << row.day << '\t' << Num(row.intl_mobile_desktop) << '\t'
        << Num(row.dom_mobile_desktop) << '\t' << Num(row.intl_unclassified)
        << '\t' << Num(row.dom_unclassified) << '\n';
  }
  const auto f5 = study.ZoomDailyBytes();
  out << "fig5";
  for (int d = 0; d < f5.num_days(); ++d) out << '\t' << Num(f5.at(d));
  out << '\n';
  for (int month = 2; month <= 5; ++month) {
    const auto social = study.SocialDurations(apps::SocialApp::kFacebook, month);
    out << "fig6.m" << month << '\t' << social.domestic.n << '\t'
        << Num(social.domestic.median) << '\t' << social.international.n
        << '\t' << Num(social.international.median) << '\n';
    const auto steam = study.SteamUsage(month);
    out << "fig7.m" << month << '\t' << Num(steam.dom_bytes.median) << '\t'
        << Num(steam.intl_bytes.median) << '\t' << Num(steam.dom_conns.mean)
        << '\t' << Num(steam.intl_conns.mean) << '\n';
  }
  const auto f8 = study.SwitchGameplayDaily();
  out << "fig8";
  for (int d = 0; d < f8.num_days(); ++d) out << '\t' << Num(f8.at(d));
  out << '\n';
  const auto sw = study.CountSwitches();
  out << "fig8.counts\t" << sw.active_february << '\t'
      << sw.active_post_shutdown << '\t' << sw.new_in_april_may << '\n';
  for (const auto& row : study.CategoryVolumes()) {
    out << "categories\t" << row.day << '\t' << Num(row.education) << '\t'
        << Num(row.video_conferencing) << '\t' << Num(row.streaming) << '\t'
        << Num(row.social_media) << '\t' << Num(row.gaming) << '\t'
        << Num(row.messaging) << '\t' << Num(row.other) << '\n';
  }
  const auto diurnal =
      study.DiurnalShape(0, util::StudyCalendar::NumDays() - 1);
  out << "diurnal";
  for (const double v : diurnal.weekday) out << '\t' << Num(v);
  for (const double v : diurnal.weekend) out << '\t' << Num(v);
  out << '\n';
  const auto h = study.HeadlineStats();
  out << "headline\t" << h.peak_active_devices << '\t'
      << h.trough_active_devices << '\t' << h.post_shutdown_users << '\t'
      << Num(h.traffic_increase) << '\t' << Num(h.distinct_sites_increase)
      << '\t' << h.international_devices << '\t' << Num(h.international_share)
      << '\n';
}

/// Full end-to-end rendering: simulate + process + exact study + sketched
/// study, all under whatever observability state is currently set.
std::string RenderEverything(int threads) {
  core::StudyConfig cfg = core::StudyConfig::Small(kStudents, kSeed);
  cfg.threads = threads;
  const core::CollectionResult collection =
      core::MeasurementPipeline::Collect(cfg);

  std::ostringstream out;
  const auto& st = collection.stats;
  out << "stats\t" << st.raw_flows << '\t' << st.unattributed << '\t'
      << st.visitor_flows << '\t' << st.devices_observed << '\t'
      << st.devices_retained << '\t' << st.ua_sightings << '\n';

  const core::LockdownStudy batch(collection.dataset,
                                  world::ServiceCatalog::Default(), threads);
  RenderBatchFigures(out, batch);

  stream::StreamingOptions options;
  options.threads = threads;
  const stream::StreamingStudy streaming(
      collection.dataset, world::ServiceCatalog::Default(), options);
  RenderBatchFigures(out, streaming);
  return out.str();
}

TEST(ObsDifferential, FiguresBitIdenticalWithObsOnAndOff) {
  for (const int threads : {1, 4}) {
    SetMetricsEnabled(false);
    SetTracingEnabled(false);
    const std::string off = RenderEverything(threads);

    SetMetricsEnabled(true);
    SetTracingEnabled(true);
    const std::string on = RenderEverything(threads);

    SetMetricsEnabled(false);
    SetTracingEnabled(false);
    ResetMetrics();
    ResetTrace();

    EXPECT_EQ(off, on) << "observability perturbed figure output at threads="
                       << threads;
  }
}

}  // namespace
}  // namespace lockdown::obs
