// IoT detection in the style of Saidi et al. (IMC '20), which the paper
// applies "with a threshold of 0.5" (§3).
//
// Each IoT platform has a signature: the set of backend domains its devices
// contact. A device matches a platform when it has contacted at least
// `threshold` of the platform's signature domains — IoT devices talk to
// (nearly) the whole backend set, while a browser that merely visited the
// vendor's homepage does not.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classify/observations.h"
#include "world/catalog.h"

namespace lockdown::classify {

struct IotMatch {
  std::string_view platform;
  double score = 0.0;  ///< fraction of the platform's signature contacted
};

class IotDetector {
 public:
  struct Signature {
    std::string platform;
    std::vector<std::string> domains;
  };

  /// Builds one signature per IoT-backend service in the catalog.
  explicit IotDetector(const world::ServiceCatalog& catalog, double threshold = 0.5);

  /// Custom signatures (tests).
  IotDetector(std::vector<Signature> signatures, double threshold);

  /// Best-scoring platform at or above the threshold, if any, over the
  /// domains a device contacted.
  [[nodiscard]] std::optional<IotMatch> Detect(
      std::span<const DomainBytes> domains) const;

  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::size_t num_signatures() const noexcept {
    return signatures_.size();
  }

 private:
  std::vector<Signature> signatures_;
  double threshold_;
};

}  // namespace lockdown::classify
