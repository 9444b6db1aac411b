#include "core/study_context.h"

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

  // Precompute per-domain application flags (slot-disjoint writes).
  domain_flags_.resize(dataset.num_domains());
  pool.ParallelFor(dataset.num_domains(), kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       const std::string_view name =
                           dataset.DomainName(static_cast<DomainId>(i));
                       if (name.empty()) continue;
                       DomainFlags& f = domain_flags_[i];
                       f.zoom = zoom_.MatchesDomain(name);
                       f.fb_family = social_.IsFacebookFamily(name);
                       f.instagram_only = social_.IsInstagramOnly(name);
                       f.tiktok = social_.IsTikTok(name);
                       f.steam = steam_.Matches(name);
                       f.nintendo = nintendo_.IsNintendo(name);
                       f.nintendo_gameplay = nintendo_.IsGameplay(name);
                     }
                   });

  // Classify every device from its observations plus the per-domain bytes
  // tallied from its flows; the same walk applies the §5.3.2 Switch rule (at
  // least half the domain-attributed bytes on Nintendo domains). Each slot
  // is written by exactly one chunk.
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
                       const auto domains = tally.Of(dev);
                       classifications_[i] = classifier.Classify(
                           dataset.device(dev).observations, domains);
                       report_class_[i] =
                           ReportClassOf(classifications_[i].device_class);
                       std::uint64_t total = 0;
                       std::uint64_t nintendo_bytes = 0;
                       for (std::size_t k = 0; k < domains.size(); ++k) {
                         total += domains[k].bytes;
                         if (domain_flags_[tally.ids()[k]].nintendo) {
                           nintendo_bytes += domains[k].bytes;
                         }
                       }
                       is_switch_[i] = total > 0 && nintendo_bytes * 2 >= total;
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
  // Devices shard by chunk, so the per-shard classifiers hold disjoint keys
  // and each device's accumulation runs in its serial (CSR) flow order.
  const std::size_t n = dataset_->num_devices();
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kDeviceGrain);
  std::vector<geo::InternationalClassifier> shards(
      num_chunks, geo::InternationalClassifier(geo_db_));
  pool.ParallelFor(n, kDeviceGrain,
                   [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                     geo::InternationalClassifier& intl = shards[chunk];
                     for (std::size_t i = begin; i < end; ++i) {
                       if (!is_post_shutdown_[i]) continue;
                       const auto dev = static_cast<DeviceIndex>(i);
                       // The classifier keys on opaque device ids; the dense
                       // dataset index works as that key directly.
                       for (const Flow& f : dataset_->FlowsOfDevice(dev)) {
                         intl.Observe(privacy::DeviceId{dev}, f.server_ip,
                                      f.total_bytes(), Dataset::StartOf(f));
                       }
                     }
                   });
  geo::InternationalClassifier intl(geo_db_);
  for (std::size_t c = 0; c < num_chunks; ++c) intl.Merge(shards[c]);
  shards.clear();

  // Classify each cohort member; stage verdicts so the vector<bool> and the
  // counters are filled serially in device order.
  enum : std::uint8_t { kNoGeo = 0, kDomestic = 1, kInternational = 2 };
  std::vector<std::uint8_t> verdicts(post_shutdown_.size(), kNoGeo);
  pool.ParallelFor(post_shutdown_.size(), kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t k = begin; k < end; ++k) {
                       const auto result =
                           intl.Classify(privacy::DeviceId{post_shutdown_[k]});
                       if (!result) continue;
                       verdicts[k] = result->international ? kInternational
                                                           : kDomestic;
                     }
                   });
  split_.international.assign(n, false);
  for (std::size_t k = 0; k < post_shutdown_.size(); ++k) {
    if (verdicts[k] == kNoGeo) continue;  // no usable Feb traffic -> domestic
    ++split_.num_with_geo;
    if (verdicts[k] == kInternational) {
      split_.international[post_shutdown_[k]] = true;
      ++split_.num_international;
    }
  }
}

}  // namespace lockdown::core
