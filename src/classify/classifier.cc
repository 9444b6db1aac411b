#include "classify/classifier.h"

#include <array>

#include "net/mac.h"

namespace lockdown::classify {

const char* ToString(DeviceClass c) noexcept {
  switch (c) {
    case DeviceClass::kMobile: return "mobile";
    case DeviceClass::kLaptopDesktop: return "laptop-desktop";
    case DeviceClass::kIot: return "iot";
    case DeviceClass::kGameConsole: return "game-console";
    case DeviceClass::kUnknown: return "unclassified";
  }
  return "???";
}

DeviceClassifier::DeviceClassifier(const world::OuiDatabase& ouis, IotDetector iot,
                                   SwitchDetector switches)
    : ouis_(&ouis), iot_(std::move(iot)), switches_(std::move(switches)) {}

DeviceClassifier DeviceClassifier::Default(const world::ServiceCatalog& catalog) {
  return DeviceClassifier(world::OuiDatabase::Default(), IotDetector(catalog),
                          SwitchDetector(catalog));
}

Classification DeviceClassifier::Classify(
    const DeviceObservations& obs, std::span<const DomainBytes> domains) const {
  // 1. Traffic-dominance Switch rule (§5.3.2) — strongest evidence.
  if (switches_.IsSwitch(domains)) {
    return {DeviceClass::kGameConsole, kSwitchTrafficEvidence};
  }

  // 2. User-Agent majority vote. UA strings are direct self-identification;
  //    a console marker anywhere wins outright.
  std::array<int, 5> votes{};
  for (const std::string& ua : obs.user_agents) {
    const UaClass c = ClassifyUserAgent(ua);
    if (c == UaClass::kGameConsole) return {DeviceClass::kGameConsole, "ua"};
    ++votes[static_cast<std::size_t>(c)];
  }
  const int desktop = votes[static_cast<std::size_t>(UaClass::kDesktop)];
  const int mobile = votes[static_cast<std::size_t>(UaClass::kMobile)];
  const int tv = votes[static_cast<std::size_t>(UaClass::kSmartTv)];
  if (desktop + mobile + tv > 0) {
    if (desktop >= mobile && desktop >= tv) return {DeviceClass::kLaptopDesktop, "ua"};
    if (mobile >= tv) return {DeviceClass::kMobile, "ua"};
    return {DeviceClass::kIot, "ua"};
  }

  // 3. OUI vendor hint (useless for randomized MACs).
  if (!obs.locally_administered) {
    const auto vendor = ouis_->Lookup(
        net::MacAddress::FromOui(obs.oui, 0));
    if (vendor) {
      switch (vendor->hint) {
        case world::VendorHint::kComputer:
          return {DeviceClass::kLaptopDesktop, "oui"};
        case world::VendorHint::kPhone:
          return {DeviceClass::kMobile, "oui"};
        case world::VendorHint::kIot:
          return {DeviceClass::kIot, "oui"};
        case world::VendorHint::kNintendo:
        case world::VendorHint::kConsoleOther:
          return {DeviceClass::kGameConsole, "oui"};
        case world::VendorHint::kComputerOrPhone:
        case world::VendorHint::kGeneric:
          break;  // ambiguous: fall through to behavioural heuristics
      }
    }
  }

  // 4. Saidi-style IoT backend signatures (threshold 0.5).
  if (iot_.Detect(domains)) {
    return {DeviceClass::kIot, "iot-signature"};
  }

  // 5. Conservative default.
  return {DeviceClass::kUnknown, "none"};
}

}  // namespace lockdown::classify
