// Nintendo Switch detection: "we classify devices in our dataset as Switches
// if at least 50% of their traffic is to the identified Nintendo servers"
// (paper §5.3.2).
#pragma once

#include <span>

#include "classify/observations.h"
#include "world/catalog.h"

namespace lockdown::classify {

class SwitchDetector {
 public:
  /// The Nintendo servers are the catalog's "nintendo-gameplay" and
  /// "nintendo-services" hosts (the stand-in for the 90DNS / SwitchBlocker
  /// lists the paper cross-checked against). The catalog must outlive the
  /// detector.
  explicit SwitchDetector(const world::ServiceCatalog& catalog);

  /// True if at least half of the device's domain-attributed bytes went to
  /// Nintendo servers. Devices with no attributed traffic never match.
  [[nodiscard]] bool IsSwitch(std::span<const DomainBytes> domains) const;

  /// Fraction of the device's domain-attributed bytes on Nintendo domains.
  [[nodiscard]] double NintendoShare(std::span<const DomainBytes> domains) const;

 private:
  const world::ServiceCatalog* catalog_;
  world::ServiceId gameplay_;
  world::ServiceId services_;
};

}  // namespace lockdown::classify
