// The service catalog: lookup by name, by hostname suffix, and by address,
// plus the DNS authority over every catalogued hostname.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "world/service.h"

namespace lockdown::world {

class ServiceCatalog {
 public:
  /// Builds a catalog from specs, carving each service's address block out of
  /// `super_block` (default 64.0.0.0/10 — fictional public space disjoint
  /// from the campus client pools).
  explicit ServiceCatalog(std::span<const ServiceSpec> specs,
                          net::Cidr super_block = *net::Cidr::Parse("64.0.0.0/10"));

  /// The built-in catalog modelling the services named in the paper plus a
  /// long tail of domestic and foreign sites. Built once, thread-safe after
  /// construction.
  [[nodiscard]] static const ServiceCatalog& Default();

  [[nodiscard]] const Service& Get(ServiceId id) const { return services_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return services_.size(); }
  [[nodiscard]] const std::vector<Service>& services() const noexcept {
    return services_;
  }

  /// Service with the exact given name.
  [[nodiscard]] std::optional<ServiceId> FindByName(std::string_view name) const;

  /// Service owning `host` (exact hostname or any subdomain of a catalogued
  /// name). Follows DNS label boundaries.
  [[nodiscard]] std::optional<ServiceId> FindByHost(std::string_view host) const;

  /// Service whose block contains `ip`. Runs on every tap event: a range
  /// check plus one owner-table load. Addresses below the span wrap to large
  /// offsets and fail the range check.
  [[nodiscard]] std::optional<ServiceId> FindByIp(net::Ipv4Address ip) const {
    const std::uint64_t cell = std::uint64_t{ip.value() - span_base_} >> cell_shift_;
    if (cell >= owner_.size()) return std::nullopt;
    const ServiceId id = owner_[static_cast<std::size_t>(cell)];
    if (id == kInvalidService) return std::nullopt;
    return id;
  }

  /// Authoritative resolution: address set for a catalogued hostname
  /// (several stable addresses per name, spread over the service block).
  /// Empty if the host is unknown or the service is DNS-less.
  [[nodiscard]] std::vector<net::Ipv4Address> ResolveHost(std::string_view host) const;

 private:
  std::vector<Service> services_;
  std::unordered_map<std::string_view, ServiceId> by_name_;
  // Host suffixes mapped to owning service; lookup walks label boundaries.
  std::unordered_map<std::string_view, ServiceId> by_host_suffix_;
  // Owner table over the carved span: one ServiceId (kInvalidService for a
  // gap) per smallest-block-sized cell, starting at span_base_. Blocks are
  // aligned to their size, so every cell lies inside exactly one block or
  // none.
  std::uint32_t span_base_ = 0;
  int cell_shift_ = 0;
  std::vector<ServiceId> owner_;
};

/// The specs behind ServiceCatalog::Default(); exposed so tests and docs can
/// enumerate the modelled world.
[[nodiscard]] std::span<const ServiceSpec> DefaultServiceSpecs();

}  // namespace lockdown::world
