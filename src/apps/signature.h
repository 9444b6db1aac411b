// Domain signatures for application attribution.
//
// Every application analysis in the paper starts from a list of domains
// ("we developed a signature for Steam from the set of domains that their
//  customer support recommends whitelisting", §5.3.1). A signature matches a
// hostname if it equals or is a subdomain of any signature domain. The
// registry indexes many signatures for single-pass matching; lookup walks
// the host's label boundaries, so it is O(#labels), not O(#signatures).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/hash.h"

namespace lockdown::apps {

class DomainSignature {
 public:
  DomainSignature(std::string name, std::vector<std::string> domains);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& domains() const noexcept {
    return domains_;
  }

  /// True if host equals or is a subdomain of any signature domain.
  [[nodiscard]] bool Matches(std::string_view host) const noexcept;

 private:
  std::string name_;
  std::vector<std::string> domains_;
};

using AppId = std::uint16_t;
inline constexpr AppId kNoApp = 0xFFFF;

class SignatureRegistry {
 public:
  /// Registers a signature; returns its id. Domains must not collide with an
  /// already-registered signature (throws std::invalid_argument).
  AppId Add(DomainSignature signature);

  [[nodiscard]] const DomainSignature& Get(AppId id) const { return sigs_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return sigs_.size(); }

  /// Indexed match: id of the signature owning `host`, if any.
  [[nodiscard]] std::optional<AppId> Match(std::string_view host) const;

 private:
  std::vector<DomainSignature> sigs_;
  std::unordered_map<std::string, AppId, util::StringHash, std::equal_to<>>
      suffix_index_;
};

}  // namespace lockdown::apps
