#include "apps/signature.h"

#include <stdexcept>

#include "util/strings.h"

namespace lockdown::apps {

DomainSignature::DomainSignature(std::string name, std::vector<std::string> domains)
    : name_(std::move(name)), domains_(std::move(domains)) {}

bool DomainSignature::Matches(std::string_view host) const noexcept {
  for (const std::string& d : domains_) {
    if (util::DomainMatches(host, d)) return true;
  }
  return false;
}

AppId SignatureRegistry::Add(DomainSignature signature) {
  if (sigs_.size() >= kNoApp) {
    throw std::length_error("SignatureRegistry full");
  }
  const auto id = static_cast<AppId>(sigs_.size());
  for (const std::string& d : signature.domains()) {
    if (!suffix_index_.emplace(d, id).second) {
      throw std::invalid_argument("SignatureRegistry: domain registered twice: " + d);
    }
  }
  sigs_.push_back(std::move(signature));
  return id;
}

std::optional<AppId> SignatureRegistry::Match(std::string_view host) const {
  std::string_view rest = host;
  for (;;) {
    const auto it = suffix_index_.find(rest);
    if (it != suffix_index_.end()) return it->second;
    const auto dot = rest.find('.');
    if (dot == std::string_view::npos) return std::nullopt;
    rest = rest.substr(dot + 1);
  }
}

}  // namespace lockdown::apps
