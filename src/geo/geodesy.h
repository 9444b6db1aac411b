// Spherical geometry for the geolocation analysis (paper §4.2): the
// bytes-weighted geographic midpoint of a device's destinations.
#pragma once

#include <span>

#include "world/service.h"

namespace lockdown::geo {

/// A 3-D unit (or accumulated) vector on/inside the sphere.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// lat/lon (degrees) -> unit vector.
[[nodiscard]] Vec3 ToUnitVector(world::GeoPoint p) noexcept;

/// Accumulated vector -> lat/lon. Returns {0,0} ("null island") for the
/// zero vector.
[[nodiscard]] world::GeoPoint ToGeoPoint(Vec3 v) noexcept;

/// Great-circle distance in kilometres (mean Earth radius).
[[nodiscard]] double GreatCircleKm(world::GeoPoint a, world::GeoPoint b) noexcept;

/// Streaming weighted-midpoint accumulator: add destinations weighted by
/// bytes, read the midpoint at the end. "we calculate the geographic
/// midpoint of the destination of each of that device's connections... We
/// weight each connection by its number of bytes" (§4.2).
class MidpointAccumulator {
 public:
  void Add(world::GeoPoint p, double weight) noexcept;

  [[nodiscard]] bool empty() const noexcept { return total_weight_ <= 0.0; }
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }
  [[nodiscard]] world::GeoPoint Midpoint() const noexcept { return ToGeoPoint(sum_); }

 private:
  Vec3 sum_;
  double total_weight_ = 0.0;
};

}  // namespace lockdown::geo
