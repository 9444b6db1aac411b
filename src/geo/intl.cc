#include "geo/intl.h"

namespace lockdown::geo {

InternationalClassifier::InternationalClassifier(const world::GeoDatabase& geo,
                                                 util::Timestamp window_start,
                                                 util::Timestamp window_end)
    : geo_(&geo), window_start_(window_start), window_end_(window_end) {}

InternationalClassifier::InternationalClassifier(const world::GeoDatabase& geo)
    : InternationalClassifier(
          geo, util::TimestampOf(util::CivilDate{2020, 2, 1}),
          util::TimestampOf(util::CivilDate{2020, 3, 1})) {}

void InternationalClassifier::Observe(privacy::DeviceId device,
                                      net::Ipv4Address server, std::uint64_t bytes,
                                      util::Timestamp ts) {
  if (ts < window_start_ || ts >= window_end_ || bytes == 0) return;
  const auto info = geo_->Lookup(server);
  if (!info || info->is_cdn) return;  // CDNs say where the *user* is, not the site
  acc_[device].Add(info->location, static_cast<double>(bytes));
}

std::optional<DeviceGeoResult> InternationalClassifier::Classify(
    privacy::DeviceId device) const {
  const auto it = acc_.find(device);
  if (it == acc_.end() || it->second.empty()) return std::nullopt;
  DeviceGeoResult result;
  result.midpoint = it->second.Midpoint();
  result.total_weight = it->second.total_weight();
  result.international = !UsBorder::Contains(result.midpoint);
  return result;
}

}  // namespace lockdown::geo
