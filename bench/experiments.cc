// Every measured number in EXPERIMENTS.md, from one simulated campus.
//
// Simulates the campus once (1200 students, seed 2020) and processes that
// capture twice: with the visitor filter off, for the threshold sweep, and
// as configured, for everything else. Each figure, statistic, ablation and
// extension is printed as one markdown section, in EXPERIMENTS.md's order.
// EXPERIMENTS.md holds this output verbatim in its ```experiments blocks,
// and the default tier of tools/check.sh diffs the two:
//
//   build/bench/experiments > experiments.txt
//
// Every number is deterministic: the output is byte-identical at any
// LOCKDOWN_THREADS.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/zoom.h"
#include "classify/accuracy.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "geo/border.h"
#include "geo/geodesy.h"
#include "obs/obs.h"
#include "sim/population.h"
#include "util/strings.h"
#include "util/table.h"
#include "world/geo_db.h"

namespace {

using namespace lockdown;
using core::DeviceIndex;
using SC = util::StudyCalendar;

constexpr int kStudents = 1200;
constexpr std::uint64_t kSeed = 2020;
constexpr const char* kMonths[] = {"February", "March", "April", "May"};

std::string Gb(double bytes, int precision = 2) {
  return util::FormatDouble(bytes / 1e9, precision);
}

std::string Mb(double bytes, int precision = 1) {
  return util::FormatDouble(bytes / 1e6, precision);
}

std::string Ratio(double value) { return util::FormatDouble(value, 2) + "x"; }

std::string Pct(double share) { return util::FormatDouble(100.0 * share, 1) + "%"; }

std::string DateOfDay(int day) { return util::FormatDate(SC::DateAt(day)); }

int DayOf(int month, int day) { return SC::DayIndex(util::CivilDate{2020, month, day}); }

/// Marks the paper's event dates in daily tables.
std::string EventMarker(int day) {
  const util::CivilDate d = SC::DateAt(day);
  if (d == SC::kStateOfEmergency) return "<- state of emergency";
  if (d == SC::kWhoPandemic) return "<- WHO declares pandemic";
  if (d == SC::kStayAtHome) return "<- stay-at-home order";
  if (d == SC::kBreakStart) return "<- academic break starts";
  if (d == SC::kBreakEnd) return "<- classes resume online";
  return "";
}

/// A bar of up to 60 '#' for value / max.
std::string Bar(double value, double max) {
  return std::string(static_cast<std::size_t>(std::min(value / max * 60.0, 60.0)), '#');
}

void Section(const char* name, const char* title) {
  std::cout << "## " << name << " — " << title << "\n\n";
}

/// Ground truth behind the anonymization veil, per pseudonym: the only
/// analyses allowed to peek are the ones that score the pipeline, exactly as
/// the paper's manual review did.
struct Truth {
  sim::TrueClass true_class;
  bool international;
};

std::unordered_map<std::uint64_t, Truth> GroundTruth(const core::StudyConfig& cfg) {
  const privacy::Anonymizer anonymizer = core::MeasurementPipeline::MakeAnonymizer(cfg);
  const sim::Population population(cfg.generator.population);
  std::unordered_map<std::uint64_t, Truth> truth;
  for (const sim::SimDevice& dev : population.devices()) {
    truth.emplace(anonymizer.AnonymizeMac(dev.mac).value,
                  Truth{dev.true_class, population.student_of(dev).residency ==
                                            sim::Residency::kInternational});
  }
  return truth;
}

/// One device of the unfiltered dataset, for the visitor-filter sweep.
struct DeviceTally {
  int active_days = 0;
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  bool post_shutdown = false;
};

std::vector<DeviceTally> TallyDevices(const core::Dataset& ds) {
  std::vector<DeviceTally> devices(ds.num_devices());
  const int online_day = SC::DayIndex(SC::kBreakEnd);
  // The dataset orders each device's flows by start, so a day change within a
  // device's run is a new active day.
  int last_day = -1;
  for (const core::Flow& f : ds.flows()) {
    DeviceTally& d = devices[f.device];
    const int day = core::Dataset::DayOf(f);
    if (d.flows == 0 || day != last_day) ++d.active_days;
    last_day = day;
    d.flows += 1;
    d.bytes += f.total_bytes();
    d.post_shutdown |= day >= online_day;
  }
  return devices;
}

// --- setup + headline ---------------------------------------------------------

void Setup(const core::CollectionResult& collection) {
  Section("setup", "the simulated campus and its data funnel");
  std::cout << "students " << kStudents << ", seed " << kSeed << ": "
            << collection.dataset.num_devices() << " devices, "
            << collection.dataset.num_flows() << " processed flows\n\n";
  core::PrintFunnel(collection.stats, std::cout);
}

void Headline(const core::LockdownStudy& study) {
  const auto h = study.HeadlineStats();
  const auto sw = study.CountSwitches();
  Section("headline", "paper statistics vs. reproduction (§4, §4.1, §4.2, §5.3.2)");
  util::TablePrinter table({"statistic", "paper", "measured"});
  table.AddRow({"peak active devices", "32,019", std::to_string(h.peak_active_devices)});
  table.AddRow({"trough active devices", "4,973", std::to_string(h.trough_active_devices)});
  table.AddRow({"trough/peak", "15.5%",
                Pct(static_cast<double>(h.trough_active_devices) / h.peak_active_devices)});
  table.AddRow({"post-shutdown users", "6,522", std::to_string(h.post_shutdown_users)});
  table.AddRow({"traffic increase Feb->Apr/May", "+58%",
                "+" + util::FormatDouble(100.0 * h.traffic_increase, 0) + "%"});
  table.AddRow({"distinct sites increase", "+34%",
                "+" + util::FormatDouble(100.0 * h.distinct_sites_increase, 0) + "%"});
  table.AddRow({"international devices", "1,022", std::to_string(h.international_devices)});
  table.AddRow({"international share", "~16-18%", Pct(h.international_share)});
  table.AddRow({"Switches in February", "1,097", std::to_string(sw.active_february)});
  table.AddRow({"Switches post-shutdown", "267", std::to_string(sw.active_post_shutdown)});
  table.AddRow({"new Switches Apr/May", "40", std::to_string(sw.new_in_april_may)});
  table.Print(std::cout);
}

// --- Figures 1-8 --------------------------------------------------------------

void Fig1(const core::LockdownStudy& study) {
  Section("fig1", "active devices per day by device type");
  util::TablePrinter table(
      {"date", "mobile", "laptop+desktop", "iot", "unclassified", "total", ""});
  int peak = 0, trough = 1 << 30;
  const int shutdown = SC::DayIndex(SC::kStayAtHome);
  for (const auto& row : study.ActiveDevicesPerDay()) {
    peak = std::max(peak, row.total);
    if (row.day >= shutdown) trough = std::min(trough, row.total);
    table.AddRow({DateOfDay(row.day), std::to_string(row.by_class[0]),
                  std::to_string(row.by_class[1]), std::to_string(row.by_class[2]),
                  std::to_string(row.by_class[3]), std::to_string(row.total),
                  EventMarker(row.day)});
  }
  table.Print(std::cout);
  std::cout << "\npeak active devices:   " << peak << "   (paper: 32,019)\n"
            << "trough after shutdown: " << trough << "   (paper: 4,973)\n"
            << "trough/peak ratio:     " << Pct(static_cast<double>(trough) / peak)
            << "   (paper: 15.5%)\n";
}

void Fig2(const core::LockdownStudy& study) {
  Section("fig2", "mean and median daily bytes per active device by type (GB, every other day)");
  util::TablePrinter table({"date", "mob avg", "mob med", "lap avg", "lap med", "iot avg",
                            "iot med", "unc avg", "unc med", ""});
  std::array<double, core::kNumReportClasses> worst_ratio{};
  int cells = 0, mean_above_median = 0;
  for (const auto& row : study.BytesPerDevicePerDay()) {
    for (std::size_t c = 0; c < worst_ratio.size(); ++c) {
      if (row.median[c] <= 0) continue;
      ++cells;
      mean_above_median += row.mean[c] > row.median[c];
      worst_ratio[c] = std::max(worst_ratio[c], row.mean[c] / row.median[c]);
    }
    if (row.day % 2 != 0) continue;  // every other day keeps the table readable
    std::vector<std::string> cells_out = {DateOfDay(row.day)};
    for (std::size_t c = 0; c < worst_ratio.size(); ++c) {
      cells_out.push_back(Gb(row.mean[c]));
      cells_out.push_back(Gb(row.median[c]));
    }
    cells_out.push_back(EventMarker(row.day));
    table.AddRow(std::move(cells_out));
  }
  table.Print(std::cout);
  std::cout << "\n(day, class) cells with mean > median: "
            << Pct(static_cast<double>(mean_above_median) / cells) << "\n"
            << "largest IoT mean/median ratio:          "
            << util::FormatDouble(worst_ratio[2], 1) << "x\n"
            << "largest unclassified mean/median ratio: "
            << util::FormatDouble(worst_ratio[3], 1)
            << "x   (paper: \"spans several orders of magnitude\")\n";
}

void Fig3(const core::LockdownStudy& study) {
  const auto result = study.HourOfWeekVolume();
  Section("fig3", "normalized median per-device volume per hour of week");
  std::cout << "(normalization divisor: " << Mb(result.normalization) << " MB)\n\n";
  util::TablePrinter table({"day", "hour", "wk 2/20", "wk 3/19", "wk 4/9", "wk 5/14"});
  static constexpr const char* kDays[] = {"Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"};
  for (int bin = 0; bin < analysis::HourOfWeekSeries::kHours; ++bin) {
    std::vector<std::string> row = {kDays[bin / 24], std::to_string(bin % 24)};
    for (const auto& week : result.weeks) row.push_back(util::FormatDouble(week.at(bin), 1));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  const auto day_sum = [&](std::size_t week, int day, int from_h, int to_h) {
    double s = 0;
    for (int h = from_h; h <= to_h; ++h) s += result.weeks[week].at(day * 24 + h);
    return s;
  };
  // Thursday/Friday mornings, and Saturday/Sunday daytime.
  const double pre_morning = day_sum(0, 0, 8, 12) + day_sum(0, 1, 8, 12);
  const double shut_morning = day_sum(2, 0, 8, 12) + day_sum(2, 1, 8, 12);
  const double pre_weekend = day_sum(0, 2, 9, 23) + day_sum(0, 3, 9, 23);
  const double shut_weekend = day_sum(2, 2, 9, 23) + day_sum(2, 3, 9, 23);
  std::cout << "\nweekday morning volume, wk 4/9 vs wk 2/20: " << Ratio(shut_morning / pre_morning)
            << "   (paper: spikes earlier and higher during shutdown)\n"
            << "weekend daytime volume, wk 4/9 vs wk 2/20: " << Ratio(shut_weekend / pre_weekend)
            << "   (paper: weekends relatively unchanged)\n";
}

void Fig4(const core::LockdownStudy& study) {
  const auto rows = study.MedianBytesExcludingZoom();
  const auto& split = study.Split();
  Section("fig4", "median daily bytes per post-shutdown device, Zoom excluded (GB)");
  util::TablePrinter table(
      {"date", "intl mob/desk", "dom mob/desk", "intl unclass", "dom unclass", ""});
  for (const auto& row : rows) {
    table.AddRow({DateOfDay(row.day), Gb(row.intl_mobile_desktop), Gb(row.dom_mobile_desktop),
                  Gb(row.intl_unclassified), Gb(row.dom_unclassified), EventMarker(row.day)});
  }
  table.Print(std::cout);

  using R = core::LockdownStudy::Fig4Row;
  const auto avg = [&rows](double R::*member, int from, int to) {
    double s = 0;
    for (int d = from; d <= to; ++d) s += rows[static_cast<std::size_t>(d)].*member;
    return s / (to - from + 1);
  };
  const int b0 = SC::DayIndex(SC::kBreakStart);
  const int b1 = SC::DayIndex(SC::kBreakEnd) - 1;
  const int m0 = DayOf(2, 17), m1 = DayOf(2, 22);  // mid-February
  const int may0 = DayOf(5, 1), may1 = static_cast<int>(rows.size()) - 1;
  const std::size_t users = study.PostShutdownDevices().size();
  std::cout << "\nlabeled international devices: " << split.num_international << " of " << users
            << " post-shutdown users ("
            << Pct(static_cast<double>(split.num_international) / users)
            << "; paper: 1,022 of 6,522)\n"
            << "break-week median vs mid-February, international mob/desk: "
            << Ratio(avg(&R::intl_mobile_desktop, b0, b1) / avg(&R::intl_mobile_desktop, m0, m1))
            << " (paper: rises)\n"
            << "break-week median vs mid-February, domestic mob/desk:      "
            << Ratio(avg(&R::dom_mobile_desktop, b0, b1) / avg(&R::dom_mobile_desktop, m0, m1))
            << " (paper: stable)\n"
            << "May median vs mid-February, international mob/desk:        "
            << Ratio(avg(&R::intl_mobile_desktop, may0, may1) /
                     avg(&R::intl_mobile_desktop, m0, m1))
            << " (paper: stays elevated)\n";
}

void Fig5(const core::LockdownStudy& study) {
  const auto series = study.ZoomDailyBytes();
  Section("fig5", "daily aggregate Zoom traffic, post-shutdown users");
  double max_value = 1.0;
  for (int day = 0; day < series.num_days(); ++day) max_value = std::max(max_value, series.at(day));
  util::TablePrinter table({"date", "weekday", "zoom GB", "", ""});
  for (int day = 0; day < series.num_days(); ++day) {
    table.AddRow({DateOfDay(day), util::ToString(util::WeekdayOf(SC::DateAt(day))),
                  Gb(series.at(day)), Bar(series.at(day), max_value), EventMarker(day)});
  }
  table.Print(std::cout);

  const int break_days = SC::DayIndex(SC::kBreakEnd) - SC::DayIndex(SC::kBreakStart);
  const double feb_daily = series.SumRange(DayOf(2, 3), DayOf(2, 28)) / 26.0;
  const double apr_weekdays = (series.at(DayOf(4, 14)) + series.at(DayOf(4, 15))) / 2;
  const double apr_weekend = (series.at(DayOf(4, 18)) + series.at(DayOf(4, 19))) / 2;
  const double break_daily = series.SumRange(SC::DayIndex(SC::kBreakStart),
                                             SC::DayIndex(SC::kBreakEnd) - 1) /
                             break_days;
  std::cout << "\nFebruary daily average:      " << Gb(feb_daily) << " GB (paper: near zero)\n"
            << "April weekday (4/14, 4/15):  " << Gb(apr_weekdays)
            << " GB (paper: ~600-700 GB at full scale)\n"
            << "April weekend (4/18, 4/19):  " << Gb(apr_weekend)
            << " GB (paper: pronounced weekend dips)\n"
            << "weekday/weekend ratio:       " << util::FormatDouble(apr_weekdays / apr_weekend, 1)
            << "x\n"
            << "break-week daily average:    " << Gb(break_daily) << " GB, "
            << Ratio(break_daily / apr_weekdays) << " an April weekday (paper: quiet break)\n";
}

void Fig6(const core::LockdownStudy& study) {
  Section("fig6", "social-media mobile duration per device (hours/month)");
  using apps::SocialApp;
  constexpr std::array<SocialApp, 3> kApps = {SocialApp::kFacebook, SocialApp::kInstagram,
                                              SocialApp::kTikTok};
  // box[app][month - 2]
  std::array<std::array<core::LockdownStudy::SocialBox, 4>, 3> box;
  for (std::size_t a = 0; a < kApps.size(); ++a) {
    for (int month = 2; month <= 5; ++month) {
      box[a][static_cast<std::size_t>(month - 2)] = study.SocialDurations(kApps[a], month);
    }
  }
  for (std::size_t a = 0; a < kApps.size(); ++a) {
    std::cout << "FIG 6" << static_cast<char>('a' + a) << " — " << apps::ToString(kApps[a])
              << "\n";
    util::TablePrinter table({"month", "group", "n", "p1", "q1", "median", "q3", "p95", "p99"});
    for (std::size_t m = 0; m < 4; ++m) {
      const auto add = [&](const char* group, const analysis::BoxStats& b) {
        table.AddRow({kMonths[m], group, std::to_string(b.n), util::FormatDouble(b.p1, 2),
                      util::FormatDouble(b.q1, 2), util::FormatDouble(b.median, 2),
                      util::FormatDouble(b.q3, 2), util::FormatDouble(b.p95, 2),
                      util::FormatDouble(b.p99, 2)});
      };
      add("domestic", box[a][m].domestic);
      add("international", box[a][m].international);
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  const auto vs_feb = [](double value, double feb) { return Ratio(value / std::max(feb, 1e-9)); };
  util::TablePrinter ratios({"median vs February", "Mar/Feb", "Apr/Feb", "May/Feb"});
  for (std::size_t a = 0; a < kApps.size(); ++a) {
    for (const bool intl : {false, true}) {
      const auto median = [&](std::size_t m) {
        return intl ? box[a][m].international.median : box[a][m].domestic.median;
      };
      ratios.AddRow({std::string(apps::ToString(kApps[a])) +
                         (intl ? " international" : " domestic"),
                     vs_feb(median(1), median(0)), vs_feb(median(2), median(0)),
                     vs_feb(median(3), median(0))});
    }
  }
  ratios.Print(std::cout);
  const auto& fb_feb = box[0][0];
  std::cout << "\nFB February median, domestic/international: "
            << vs_feb(fb_feb.domestic.median, fb_feb.international.median)
            << " (paper: domestic higher)\n"
            << "TikTok domestic q3 May/Feb:                 "
            << vs_feb(box[2][3].domestic.q3, box[2][0].domestic.q3)
            << " (paper: upper tail grows)\n";
}

void Fig7(const core::LockdownStudy& study) {
  std::array<core::LockdownStudy::SteamBox, 4> box;
  for (int month = 2; month <= 5; ++month) {
    box[static_cast<std::size_t>(month - 2)] = study.SteamUsage(month);
  }
  Section("fig7", "Steam bytes and connections per device per month");
  using Member = analysis::BoxStats core::LockdownStudy::SteamBox::*;
  const auto print_table = [&box](const char* title, Member dom, Member intl, auto fmt) {
    std::cout << title << "\n";
    util::TablePrinter table({"month", "group", "n", "p1", "q1", "median", "q3", "p95"});
    for (std::size_t m = 0; m < 4; ++m) {
      for (const auto& [group, member] : {std::pair{"domestic", dom}, std::pair{"international", intl}}) {
        const analysis::BoxStats& b = box[m].*member;
        table.AddRow({kMonths[m], group, std::to_string(b.n), fmt(b.p1), fmt(b.q1),
                      fmt(b.median), fmt(b.q3), fmt(b.p95)});
      }
    }
    table.Print(std::cout);
  };
  using B = core::LockdownStudy::SteamBox;
  print_table("FIG 7a — Steam bytes per device per month (MB)", &B::dom_bytes, &B::intl_bytes,
              [](double v) { return Mb(v); });
  std::cout << "\n";
  print_table("FIG 7b — Steam connections per device per month", &B::dom_conns, &B::intl_conns,
              [](double v) { return util::FormatDouble(v, 0); });

  const auto ratio = [&box](Member member, std::size_t num, std::size_t den) {
    return Ratio((box[num].*member).median / std::max((box[den].*member).median, 1.0));
  };
  std::cout << "\ndomestic bytes Mar/Feb median:      " << ratio(&B::dom_bytes, 1, 0)
            << " (paper: increases in March)\n"
            << "domestic bytes May/Mar median:      " << ratio(&B::dom_bytes, 3, 1)
            << " (paper: falls in April and May)\n"
            << "international bytes Mar/Feb median: " << ratio(&B::intl_bytes, 1, 0)
            << " (paper: increases even more)\n"
            << "international bytes May/Mar median: " << ratio(&B::intl_bytes, 3, 1)
            << " (paper: falls in May)\n"
            << "April bytes median, intl/domestic:  "
            << Ratio(box[2].intl_bytes.median / std::max(box[2].dom_bytes.median, 1.0)) << "\n"
            << "domestic conns May/Feb median:      " << ratio(&B::dom_conns, 3, 0)
            << " (paper: drops over time)\n"
            << "international conns Mar/Feb median: " << ratio(&B::intl_conns, 1, 0)
            << " (paper: up in March)\n"
            << "international conns May/Mar median: " << ratio(&B::intl_conns, 3, 1)
            << " (paper: then down)\n";
}

void Fig8(const core::LockdownStudy& study) {
  const auto series = study.SwitchGameplayDaily(3);
  const auto counts = study.CountSwitches();
  Section("fig8", "Nintendo Switch gameplay MB per day, 3-day moving average");
  double max_value = 1.0;
  for (int day = 0; day < series.num_days(); ++day) max_value = std::max(max_value, series.at(day));
  util::TablePrinter table({"date", "gameplay MB", "", ""});
  for (int day = 0; day < series.num_days(); ++day) {
    table.AddRow({DateOfDay(day), Mb(series.at(day)), Bar(series.at(day), max_value),
                  EventMarker(day)});
  }
  table.Print(std::cout);

  const double pre = series.SumRange(DayOf(2, 5), DayOf(2, 18)) / 14.0;
  const double brk = series.SumRange(DayOf(3, 22), DayOf(3, 29)) / 8.0;
  const double lull = series.SumRange(DayOf(4, 20), DayOf(5, 3)) / 14.0;
  const double late = series.SumRange(DayOf(5, 12), DayOf(5, 25)) / 14.0;
  std::cout << "\nSwitch devices active in February:      " << counts.active_february
            << "  (paper: 1,097)\n"
            << "Switch devices active post-shutdown:    " << counts.active_post_shutdown
            << "  (paper: 267)\n"
            << "new Switches first seen in April/May:   " << counts.new_in_april_may
            << "  (paper: 40)\n"
            << "break-week gameplay vs early February:  " << Ratio(brk / pre)
            << " (paper: heavy spikes)\n"
            << "late-May gameplay vs late-April lull:   " << Ratio(late / lull)
            << " (paper: rises again)\n";
}

// --- §3 classifier validation --------------------------------------------------

classify::DeviceClass ToPredicted(sim::TrueClass t) {
  switch (t) {
    case sim::TrueClass::kMobile: return classify::DeviceClass::kMobile;
    case sim::TrueClass::kLaptopDesktop: return classify::DeviceClass::kLaptopDesktop;
    case sim::TrueClass::kIot: return classify::DeviceClass::kIot;
    case sim::TrueClass::kGameConsole: return classify::DeviceClass::kGameConsole;
  }
  return classify::DeviceClass::kUnknown;
}

void ClassifierAccuracy(const core::LockdownStudy& study,
                        const std::unordered_map<std::uint64_t, Truth>& truth) {
  const core::Dataset& ds = study.dataset();
  std::vector<classify::LabelledDevice> labelled;
  for (DeviceIndex i = 0; i < ds.num_devices(); ++i) {
    const auto it = truth.find(ds.device(i).id.value);
    if (it == truth.end()) continue;
    labelled.push_back(classify::LabelledDevice{study.classifications()[i].device_class,
                                                ToPredicted(it->second.true_class)});
  }
  Section("classifier_accuracy", "simulated manual review vs. ground truth (§3)");
  util::TablePrinter table(
      {"sample", "correct", "misclassified", "unknown omissions", "omission share of errors",
       "accuracy"});
  // The paper's single 100-device review, then larger samples to show the
  // estimate's stability.
  for (const int sample : {100, 250, 1000}) {
    const auto r = classify::EstimateAccuracy(labelled, sample, kSeed);
    const int errors = r.misclassified + r.unknown_omissions;
    table.AddRow({std::to_string(r.sampled), std::to_string(r.correct),
                  std::to_string(r.misclassified), std::to_string(r.unknown_omissions),
                  errors == 0 ? "-" : Pct(static_cast<double>(r.unknown_omissions) / errors),
                  Pct(r.accuracy())});
  }
  table.Print(std::cout);
  std::cout << "\npaper: 100 sampled, 84 correct, 2 misclassified, 14 unknown omissions\n";

  std::unordered_map<int, int> by_class;
  for (const auto& l : labelled) ++by_class[static_cast<int>(l.predicted)];
  std::cout << "\npredicted class counts over " << labelled.size() << " devices:\n";
  for (const auto cls : {classify::DeviceClass::kMobile, classify::DeviceClass::kLaptopDesktop,
                         classify::DeviceClass::kIot, classify::DeviceClass::kGameConsole,
                         classify::DeviceClass::kUnknown}) {
    std::cout << "  " << classify::ToString(cls) << ": " << by_class[static_cast<int>(cls)]
              << "\n";
  }
}

// --- Ground-truth ablations ------------------------------------------------------

void AblationZoomAttribution(const core::Dataset& ds) {
  const auto& catalog = world::ServiceCatalog::Default();
  const apps::ZoomMatcher matcher(catalog);
  const auto zoom = catalog.FindByName("zoom");
  const auto media = catalog.FindByName("zoom-media");
  const auto legacy = catalog.FindByName("zoom-media-legacy");

  // The domain tier, decided once per interned domain.
  std::vector<bool> zoom_domain(ds.num_domains(), false);
  for (core::DomainId d = 0; d < ds.num_domains(); ++d) {
    zoom_domain[d] = matcher.MatchesDomain(ds.DomainName(d));
  }

  // Ground truth: every flow whose server truly belongs to a Zoom service.
  std::uint64_t truth = 0, by_domain = 0, by_current_ip = 0, by_historical_ip = 0;
  for (const core::Flow& f : ds.flows()) {
    const auto svc = catalog.FindByIp(f.server_ip);
    if (svc != zoom && svc != media && svc != legacy) continue;
    truth += f.total_bytes();
    if (zoom_domain[f.domain]) {
      by_domain += f.total_bytes();
    } else if (matcher.MatchesCurrentIp(f.server_ip)) {
      by_current_ip += f.total_bytes();
    } else if (matcher.MatchesHistoricalIp(f.server_ip)) {
      by_historical_ip += f.total_bytes();
    }
  }
  const auto share = [truth](std::uint64_t v) {
    return Pct(static_cast<double>(v) / static_cast<double>(truth));
  };
  Section("ablation_zoom_attribution", "Zoom attribution tiers vs. ground truth (§5.1)");
  std::cout << "ground truth: " << Gb(static_cast<double>(truth)) << " GB of Zoom traffic\n\n";
  util::TablePrinter table({"attribution tier", "zoom GB", "share of truth", "cumulative"});
  std::uint64_t cumulative = 0;
  for (const auto& [tier, bytes] :
       {std::pair{"zoom.us domains (DNS-mapped)", by_domain},
        std::pair{"+ published relay IP list", by_current_ip},
        std::pair{"+ wayback-recovered IP ranges", by_historical_ip}}) {
    cumulative += bytes;
    table.AddRow({tier, Gb(static_cast<double>(bytes)), share(bytes), share(cumulative)});
  }
  table.Print(std::cout);
  std::cout << "\nraw-IP Zoom bytes (relay lists only): "
            << share(by_current_ip + by_historical_ip) << "\n";
}

void AblationGeolocation(const core::LockdownStudy& study,
                         const std::unordered_map<std::uint64_t, Truth>& truth) {
  const core::Dataset& ds = study.dataset();
  const world::GeoDatabase geo(world::ServiceCatalog::Default());
  struct Variant {
    const char* name;
    bool exclude_cdn;
    bool weight_by_bytes;
  };
  constexpr Variant kVariants[] = {
      {"paper method (bytes-weighted, CDNs excluded)", true, true},
      {"CDNs included", false, true},
      {"connection-count weighted", true, false},
  };
  Section("ablation_geolocation", "international-student labelling vs. ground truth (§4.2)");
  util::TablePrinter table({"variant", "labeled intl", "precision", "recall"});
  const util::Timestamp feb_end = util::TimestampOf(util::CivilDate{2020, 3, 1});
  for (const Variant& v : kVariants) {
    // February midpoints, accumulated by hand so the variants can bend the rules.
    std::unordered_map<DeviceIndex, geo::MidpointAccumulator> acc;
    for (const core::Flow& f : ds.flows()) {
      if (core::Dataset::StartOf(f) >= feb_end) continue;
      const auto info = geo.Lookup(f.server_ip);
      if (!info || (v.exclude_cdn && info->is_cdn)) continue;
      acc[f.device].Add(info->location,
                        v.weight_by_bytes ? static_cast<double>(f.total_bytes()) : 1.0);
    }
    std::size_t tp = 0, fp = 0, fn = 0;
    for (const DeviceIndex dev : study.PostShutdownDevices()) {
      const auto truth_it = truth.find(ds.device(dev).id.value);
      if (truth_it == truth.end()) continue;
      const auto it = acc.find(dev);
      const bool predicted = it != acc.end() && !it->second.empty() &&
                             !geo::UsBorder::Contains(it->second.Midpoint());
      const bool actual = truth_it->second.international;
      tp += predicted && actual;
      fp += predicted && !actual;
      fn += !predicted && actual;
    }
    const auto frac = [](std::size_t num, std::size_t den) {
      return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    };
    table.AddRow({v.name, std::to_string(tp + fp), Pct(frac(tp, tp + fp)),
                  Pct(frac(tp, tp + fn))});
  }
  table.Print(std::cout);
}

void AblationVisitorFilter(const std::vector<DeviceTally>& devices) {
  Section("ablation_visitor_filter", "visitor-filter threshold sweep (the paper uses 14 days)");
  std::uint64_t total_flows = 0, total_bytes = 0;
  for (const DeviceTally& d : devices) {
    total_flows += d.flows;
    total_bytes += d.bytes;
  }
  util::TablePrinter table(
      {"min days", "devices kept", "% devices", "% flows", "% bytes", "post-shutdown kept"});
  for (const int threshold : {1, 3, 7, 10, 14, 21, 28}) {
    std::size_t kept = 0, post_kept = 0;
    std::uint64_t flows = 0, bytes = 0;
    for (const DeviceTally& d : devices) {
      if (d.active_days < threshold) continue;
      ++kept;
      post_kept += d.post_shutdown;
      flows += d.flows;
      bytes += d.bytes;
    }
    table.AddRow({std::to_string(threshold), std::to_string(kept),
                  Pct(static_cast<double>(kept) / static_cast<double>(devices.size())),
                  Pct(static_cast<double>(flows) / static_cast<double>(total_flows)),
                  Pct(static_cast<double>(bytes) / static_cast<double>(total_bytes)),
                  std::to_string(post_kept)});
  }
  table.Print(std::cout);
}

// --- Extensions -------------------------------------------------------------------

void ExtCategoryVolumes(const core::LockdownStudy& study) {
  const auto rows = study.CategoryVolumes();
  Section("ext_category_volumes", "daily GB by category, post-shutdown cohort (every third day)");
  util::TablePrinter table(
      {"date", "educ", "vidconf", "stream", "social", "gaming", "msg", "other", ""});
  for (const auto& row : rows) {
    if (row.day % 3 != 0) continue;
    table.AddRow({DateOfDay(row.day), Gb(row.education, 1), Gb(row.video_conferencing, 1),
                  Gb(row.streaming, 1), Gb(row.social_media, 1), Gb(row.gaming, 1),
                  Gb(row.messaging, 1), Gb(row.other, 1), EventMarker(row.day)});
  }
  table.Print(std::cout);

  using R = core::LockdownStudy::CategoryVolumeRow;
  const auto month_sum = [&rows](int month, double R::*member) {
    double s = 0;
    for (const auto& row : rows) {
      if (SC::DateAt(row.day).month == month) s += row.*member;
    }
    return s;
  };
  util::TablePrinter summary({"category", "Feb GB", "Mar GB", "Apr GB", "May GB", "Apr/Feb"});
  for (const auto& [name, member] :
       {std::pair{"education", &R::education},
        std::pair{"video conferencing", &R::video_conferencing},
        std::pair{"streaming", &R::streaming}, std::pair{"social media", &R::social_media},
        std::pair{"gaming", &R::gaming}, std::pair{"messaging", &R::messaging}}) {
    const double feb = month_sum(2, member);
    const double apr = month_sum(4, member);
    summary.AddRow({name, Gb(feb, 0), Gb(month_sum(3, member), 0), Gb(apr, 0),
                    Gb(month_sum(5, member), 0),
                    util::FormatDouble(feb > 0 ? apr / feb : 0.0, 1) + "x"});
  }
  std::cout << "\n";
  summary.Print(std::cout);
}

void ExtDiurnalComparison(const core::LockdownStudy& study) {
  // Pre-pandemic: all of February. Shutdown: April (fully online term).
  const auto pre = study.DiurnalShape(0, DayOf(2, 29));
  const auto shut = study.DiurnalShape(DayOf(4, 1), DayOf(4, 30));
  Section("ext_diurnal_comparison", "hour-of-day volume profiles vs. Feldmann et al. (% of day)");
  util::TablePrinter profile(
      {"hour", "pre weekday", "pre weekend", "shutdown weekday", "shutdown weekend"});
  for (std::size_t h = 0; h < 24; ++h) {
    profile.AddRow({std::to_string(h), util::FormatDouble(100 * pre.weekday[h], 1),
                    util::FormatDouble(100 * pre.weekend[h], 1),
                    util::FormatDouble(100 * shut.weekday[h], 1),
                    util::FormatDouble(100 * shut.weekend[h], 1)});
  }
  profile.Print(std::cout);

  // Did the weekday shape move toward the pre-pandemic weekend shape? L1
  // distances between normalized profiles (cosine saturates: every diurnal
  // curve shares the gross day/night swing).
  const auto l1 = [](const std::array<double, 24>& a, const std::array<double, 24>& b) {
    double d = 0.0;
    for (std::size_t h = 0; h < 24; ++h) d += std::abs(a[h] - b[h]);
    return d;
  };
  const double baseline_gap = l1(pre.weekday, pre.weekend);
  const double shutdown_gap = l1(shut.weekday, pre.weekend);
  std::cout << "\nL1 distances between normalized profiles:\n"
            << "  pre weekday      vs pre weekend: " << util::FormatDouble(baseline_gap, 3)
            << "  (the pre-pandemic gap)\n"
            << "  shutdown weekday vs pre weekend: " << util::FormatDouble(shutdown_gap, 3)
            << "\n"
            << "  shutdown weekday vs pre weekday: "
            << util::FormatDouble(l1(shut.weekday, pre.weekday), 3)
            << "  (how much weekdays moved)\n"
            << "converged onto the weekend shape (gap < 0.85 x pre-pandemic gap): "
            << (shutdown_gap < baseline_gap * 0.85 ? "yes" : "no") << "\n";
}

}  // namespace

int main() {
  obs::ConfigureFromEnv();  // LOCKDOWN_METRICS / LOCKDOWN_TRACE
  const core::StudyConfig cfg = core::StudyConfig::Small(kStudents, kSeed);
  const privacy::Anonymizer anonymizer = core::MeasurementPipeline::MakeAnonymizer(cfg);
  core::RawInputs raw = core::MeasurementPipeline::Capture(cfg);
  // The sweep needs every device, visitors included: process a copy of the
  // capture with the filter off and keep only its per-device tallies.
  const std::vector<DeviceTally> unfiltered = TallyDevices(
      core::MeasurementPipeline::Process(raw, anonymizer, 1, cfg.threads).dataset);
  const core::CollectionResult collection = core::MeasurementPipeline::Process(
      std::move(raw), anonymizer, cfg.visitor_min_days, cfg.threads);
  const core::LockdownStudy study(collection.dataset, world::ServiceCatalog::Default(),
                                  cfg.threads);
  const auto truth = GroundTruth(cfg);

  Setup(collection);
  Headline(study);
  Fig1(study);
  Fig2(study);
  Fig3(study);
  Fig4(study);
  Fig5(study);
  Fig6(study);
  Fig7(study);
  Fig8(study);
  ClassifierAccuracy(study, truth);
  AblationZoomAttribution(collection.dataset);
  AblationGeolocation(study, truth);
  AblationVisitorFilter(unfiltered);
  ExtCategoryVolumes(study);
  ExtDiurnalComparison(study);
  return 0;
}
