// International-student classification (paper §4.2):
//
//  "First we collect the geolocation data for every IP address that was
//   visited by a post-shutdown user during the month of February, excluding
//   CDNs... for each device, we calculate the geographic midpoint of the
//   destination of each of that device's connections during the month of
//   February. We weight each connection by its number of bytes... if a
//   user's midpoint falls outside the borders of the United States, we
//   classify them as an international student."
#pragma once

#include <optional>
#include <unordered_map>

#include "geo/border.h"
#include "geo/geodesy.h"
#include "privacy/anonymizer.h"
#include "util/time.h"
#include "world/geo_db.h"

namespace lockdown::geo {

struct DeviceGeoResult {
  world::GeoPoint midpoint;
  double total_weight = 0.0;
  bool international = false;
};

class InternationalClassifier {
 public:
  /// Observations outside [window_start, window_end) are ignored — callers
  /// pass February 2020 per the paper. CDN addresses are skipped.
  InternationalClassifier(const world::GeoDatabase& geo, util::Timestamp window_start,
                          util::Timestamp window_end);

  /// Convenience: window = February 2020.
  explicit InternationalClassifier(const world::GeoDatabase& geo);

  /// Feeds one flow (device, destination address, byte count, start time).
  void Observe(privacy::DeviceId device, net::Ipv4Address server,
               std::uint64_t bytes, util::Timestamp ts);

  /// Result for a device; nullopt if it had no usable February traffic
  /// (such devices are conservatively treated as domestic by callers).
  [[nodiscard]] std::optional<DeviceGeoResult> Classify(privacy::DeviceId device) const;

  /// Number of devices with at least one usable observation.
  [[nodiscard]] std::size_t num_devices() const noexcept { return acc_.size(); }

 private:
  const world::GeoDatabase* geo_;
  util::Timestamp window_start_;
  util::Timestamp window_end_;
  std::unordered_map<privacy::DeviceId, MidpointAccumulator, privacy::DeviceIdHash>
      acc_;
};

}  // namespace lockdown::geo
