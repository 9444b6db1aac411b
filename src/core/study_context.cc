#include "core/study_context.h"

#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace lockdown::core {

using util::StudyCalendar;

const char* ToString(ReportClass c) noexcept {
  switch (c) {
    case ReportClass::kMobile: return "mobile";
    case ReportClass::kLaptopDesktop: return "laptop-desktop";
    case ReportClass::kIot: return "iot";
    case ReportClass::kUnclassified: return "unclassified";
  }
  return "???";
}

ReportClass ReportClassOf(classify::DeviceClass c) noexcept {
  switch (c) {
    case classify::DeviceClass::kMobile: return ReportClass::kMobile;
    case classify::DeviceClass::kLaptopDesktop: return ReportClass::kLaptopDesktop;
    case classify::DeviceClass::kIot:
    case classify::DeviceClass::kGameConsole: return ReportClass::kIot;
    case classify::DeviceClass::kUnknown: return ReportClass::kUnclassified;
  }
  return ReportClass::kUnclassified;
}

StudyContext::StudyContext(const Dataset& dataset,
                           const world::ServiceCatalog& catalog,
                           util::ThreadPool& pool)
    : dataset_(&dataset),
      catalog_(&catalog),
      geo_db_(catalog),
      zoom_(catalog),
      shutdown_day_(StudyCalendar::DayIndex(StudyCalendar::kStayAtHome)),
      post_shutdown_day_(StudyCalendar::DayIndex(StudyCalendar::kBreakEnd)) {
  OBS_SPAN("study/census");
  const std::size_t n = dataset.num_devices();

  // Tag each interned domain once with the service that owns it
  // (slot-disjoint writes).
  const auto need = [&catalog](std::string_view name) -> world::ServiceId {
    const auto id = catalog.FindByName(name);
    if (!id) {
      throw std::invalid_argument("StudyContext: catalog lacks service " +
                                  std::string(name));
    }
    return *id;
  };
  const world::ServiceId zoom = need("zoom");
  const world::ServiceId facebook = need("facebook");
  const world::ServiceId instagram = need("instagram");
  const world::ServiceId tiktok = need("tiktok");
  const world::ServiceId steam = need("steam");
  const world::ServiceId nintendo_gameplay = need("nintendo-gameplay");
  domain_flags_.resize(dataset.num_domains());
  pool.ParallelFor(dataset.num_domains(), kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       const auto owner = catalog.FindByHost(
                           dataset.DomainName(static_cast<DomainId>(i)));
                       if (!owner) continue;
                       DomainFlags& f = domain_flags_[i];
                       f.zoom = *owner == zoom;
                       f.fb_family = *owner == facebook || *owner == instagram;
                       f.instagram_only = *owner == instagram;
                       f.tiktok = *owner == tiktok;
                       f.steam = *owner == steam;
                       f.nintendo_gameplay = *owner == nintendo_gameplay;
                     }
                   });

  // Classify every device from its observations plus the per-domain bytes
  // tallied from its flows. The classifier's first step is the §5.3.2 Switch
  // rule, so its verdict is the census's Switch bit. Each slot is written by
  // exactly one chunk.
  const classify::DeviceClassifier classifier =
      classify::DeviceClassifier::Default(catalog);
  classifications_.resize(n);
  report_class_.resize(n);
  is_switch_.assign(n, 0);
  pool.ParallelFor(n, kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     DomainBytesTally tally(dataset);
                     for (std::size_t i = begin; i < end; ++i) {
                       const auto dev = static_cast<DeviceIndex>(i);
                       classifications_[i] = classifier.Classify(
                           dataset.device(dev).observations, tally.Of(dev));
                       report_class_[i] =
                           ReportClassOf(classifications_[i].device_class);
                       is_switch_[i] = classifications_[i].evidence ==
                                       classify::kSwitchTrafficEvidence;
                     }
                   });

  // Post-shutdown users: the devices that "remained on campus after the
  // shutdown" (§4). Students kept departing through the academic break, so a
  // device counts only if it still has traffic once online classes begin
  // (3/30) — otherwise the cohort would mix in departing devices and the
  // §4.1 within-cohort comparisons would reflect demographics, not behaviour.
  // The CSR index makes each device's flag independent of every other's.
  is_post_shutdown_.assign(n, 0);
  pool.ParallelFor(n, kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       for (const Flow& f :
                            dataset.FlowsOfDevice(static_cast<DeviceIndex>(i))) {
                         if (Dataset::DayOf(f) >= post_shutdown_day_) {
                           is_post_shutdown_[i] = 1;
                           break;
                         }
                       }
                     }
                   });
  for (DeviceIndex i = 0; i < n; ++i) {
    if (is_post_shutdown_[i]) post_shutdown_.push_back(i);
  }

  ComputeSplit(pool);
}

bool StudyContext::IsZoomFlow(const Flow& f) const noexcept {
  if (f.domain != kNoDomain) return domain_flags_[f.domain].zoom;
  return zoom_.MatchesCurrentIp(f.server_ip) ||
         zoom_.MatchesHistoricalIp(f.server_ip);
}

void StudyContext::ComputeSplit(util::ThreadPool& pool) {
  OBS_SPAN("study/split");
  // §4.2: February traffic of post-shutdown users, bytes-weighted midpoint,
  // CDNs excluded (handled inside the classifier via the geo database).
  // Each chunk's classifier sees only its own devices, each accumulated in
  // its serial (CSR) flow order, and classifies them in the same pass.
  const std::size_t n = dataset_->num_devices();
  enum : std::uint8_t { kNoGeo = 0, kDomestic = 1, kInternational = 2 };
  std::vector<std::uint8_t> verdicts(n, kNoGeo);
  pool.ParallelFor(n, kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     geo::InternationalClassifier intl(geo_db_);
                     for (std::size_t i = begin; i < end; ++i) {
                       if (!is_post_shutdown_[i]) continue;
                       const auto dev = static_cast<DeviceIndex>(i);
                       // The classifier keys on opaque device ids; the dense
                       // dataset index works as that key directly.
                       const privacy::DeviceId id{dev};
                       for (const Flow& f : dataset_->FlowsOfDevice(dev)) {
                         intl.Observe(id, f.server_ip, f.total_bytes(),
                                      Dataset::StartOf(f));
                       }
                       const auto result = intl.Classify(id);
                       if (!result) continue;
                       verdicts[i] = result->international ? kInternational
                                                           : kDomestic;
                     }
                   });
  // Fill the vector<bool> and the counters serially in device order.
  split_.international.assign(n, false);
  for (const DeviceIndex dev : post_shutdown_) {
    if (verdicts[dev] == kNoGeo) continue;  // no usable Feb traffic -> domestic
    ++split_.num_with_geo;
    if (verdicts[dev] == kInternational) {
      split_.international[dev] = true;
      ++split_.num_international;
    }
  }
}

}  // namespace lockdown::core
