// Nintendo Switch detection: "we classify devices in our dataset as Switches
// if at least 50% of their traffic is to the identified Nintendo servers"
// (paper §5.3.2).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "classify/observations.h"
#include "world/catalog.h"

namespace lockdown::classify {

class SwitchDetector {
 public:
  /// Builds the Nintendo domain list from the catalog (the stand-in for the
  /// 90DNS / SwitchBlocker lists the paper cross-checked against).
  explicit SwitchDetector(const world::ServiceCatalog& catalog,
                          double traffic_threshold = 0.5);

  /// Custom domain list (tests).
  SwitchDetector(std::vector<std::string> nintendo_domains, double traffic_threshold);

  /// True if at least `threshold` of the device's domain-attributed bytes
  /// went to Nintendo servers. Devices with no attributed traffic never match.
  [[nodiscard]] bool IsSwitch(std::span<const DomainBytes> domains) const;

  /// Fraction of the device's domain-attributed bytes on Nintendo domains.
  [[nodiscard]] double NintendoShare(std::span<const DomainBytes> domains) const;

 private:
  std::vector<std::string> domains_;
  double threshold_;
};

}  // namespace lockdown::classify
