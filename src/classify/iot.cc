#include "classify/iot.h"

#include "util/strings.h"

namespace lockdown::classify {

IotDetector::IotDetector(const world::ServiceCatalog& catalog, double threshold)
    : threshold_(threshold) {
  for (const world::Service& svc : catalog.services()) {
    if (svc.category != world::Category::kIotBackend || svc.hosts.empty()) continue;
    Signature sig;
    sig.platform = svc.name;
    sig.domains = svc.hosts;
    signatures_.push_back(std::move(sig));
  }
}

IotDetector::IotDetector(std::vector<Signature> signatures, double threshold)
    : signatures_(std::move(signatures)), threshold_(threshold) {}

std::optional<IotMatch> IotDetector::Detect(
    std::span<const DomainBytes> domains) const {
  std::optional<IotMatch> best;
  for (const Signature& sig : signatures_) {
    int hit = 0;
    for (const std::string& domain : sig.domains) {
      for (const DomainBytes& contacted : domains) {
        if (util::DomainMatches(contacted.domain, domain)) {
          ++hit;
          break;
        }
      }
    }
    const double score =
        static_cast<double>(hit) / static_cast<double>(sig.domains.size());
    if (score >= threshold_ && (!best || score > best->score)) {
      best = IotMatch{sig.platform, score};
    }
  }
  return best;
}

}  // namespace lockdown::classify
