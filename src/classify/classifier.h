// The combined device classifier (paper §3): "we classify individual
// on-campus MAC devices as being desktop, mobile or IoT devices using
// multiple heuristics, including analysis of User-Agent strings and
// organizationally unique identifiers (OUIs)... For IoT devices specifically,
// we employ the methods devised by Saidi et al. with a threshold of 0.5."
//
// The heuristics are deliberately conservative: a device with no usable
// evidence is left unclassified, which the paper found to be the dominant
// error mode (14 of 16 errors in their 100-device review were conservative
// "unknown" labels).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "classify/iot.h"
#include "classify/observations.h"
#include "classify/switch_detect.h"
#include "classify/user_agent.h"
#include "world/oui_db.h"

namespace lockdown::classify {

/// Output classes, matching Figure 1's legend (consoles are reported inside
/// IoT there; we keep them separate and group at reporting time).
enum class DeviceClass : std::uint8_t {
  kMobile,
  kLaptopDesktop,
  kIot,
  kGameConsole,
  kUnknown,
};

[[nodiscard]] const char* ToString(DeviceClass c) noexcept;

struct Classification {
  DeviceClass device_class = DeviceClass::kUnknown;
  std::string_view evidence;  ///< which heuristic decided ("ua", "oui", ...)
};

class DeviceClassifier {
 public:
  DeviceClassifier(const world::OuiDatabase& ouis, IotDetector iot,
                   SwitchDetector switches);

  /// Convenience: all heuristics built from the default databases/catalog.
  [[nodiscard]] static DeviceClassifier Default(const world::ServiceCatalog& catalog);

  /// `domains` is the device's DNS-mapped traffic, one entry per domain.
  [[nodiscard]] Classification Classify(const DeviceObservations& obs,
                                        std::span<const DomainBytes> domains) const;

 private:
  const world::OuiDatabase* ouis_;
  IotDetector iot_;
  SwitchDetector switches_;
};

}  // namespace lockdown::classify
