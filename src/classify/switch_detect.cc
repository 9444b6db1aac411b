#include "classify/switch_detect.h"

#include "util/strings.h"

namespace lockdown::classify {

SwitchDetector::SwitchDetector(const world::ServiceCatalog& catalog,
                               double traffic_threshold)
    : threshold_(traffic_threshold) {
  for (const world::Service& svc : catalog.services()) {
    if (svc.name == "nintendo-gameplay" || svc.name == "nintendo-services") {
      domains_.insert(domains_.end(), svc.hosts.begin(), svc.hosts.end());
    }
  }
}

SwitchDetector::SwitchDetector(std::vector<std::string> nintendo_domains,
                               double traffic_threshold)
    : domains_(std::move(nintendo_domains)), threshold_(traffic_threshold) {}

double SwitchDetector::NintendoShare(std::span<const DomainBytes> domains) const {
  std::uint64_t nintendo = 0;
  std::uint64_t total = 0;
  for (const auto& [domain, bytes] : domains) {
    total += bytes;
    for (const std::string& sig : domains_) {
      if (util::DomainMatches(domain, sig)) {
        nintendo += bytes;
        break;
      }
    }
  }
  if (total == 0) return 0.0;
  return static_cast<double>(nintendo) / static_cast<double>(total);
}

bool SwitchDetector::IsSwitch(std::span<const DomainBytes> domains) const {
  return NintendoShare(domains) >= threshold_;
}

}  // namespace lockdown::classify
