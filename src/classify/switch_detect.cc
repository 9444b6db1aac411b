#include "classify/switch_detect.h"

namespace lockdown::classify {

SwitchDetector::SwitchDetector(const world::ServiceCatalog& catalog)
    : catalog_(&catalog),
      gameplay_(catalog.FindByName("nintendo-gameplay").value_or(world::kInvalidService)),
      services_(catalog.FindByName("nintendo-services").value_or(world::kInvalidService)) {}

double SwitchDetector::NintendoShare(std::span<const DomainBytes> domains) const {
  std::uint64_t nintendo = 0;
  std::uint64_t total = 0;
  for (const auto& [domain, bytes] : domains) {
    total += bytes;
    const auto owner = catalog_->FindByHost(domain);
    if (owner == gameplay_ || owner == services_) nintendo += bytes;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(nintendo) / static_cast<double>(total);
}

bool SwitchDetector::IsSwitch(std::span<const DomainBytes> domains) const {
  return NintendoShare(domains) >= 0.5;
}

}  // namespace lockdown::classify
