#include "core/dataset.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lockdown::core {

Dataset::Dataset() {
  domains_.emplace_back("");  // kNoDomain
}

DomainId Dataset::InternDomain(std::string_view domain) {
  if (domain.empty()) return kNoDomain;
  const auto it = domain_index_.find(domain);
  if (it != domain_index_.end()) return it->second;
  const auto id = static_cast<DomainId>(domains_.size());
  domains_.emplace_back(domain);
  domain_index_.emplace(domains_.back(), id);
  return id;
}

DeviceIndex Dataset::AddDevice(privacy::DeviceId id) {
  const auto index = static_cast<DeviceIndex>(devices_.size());
  devices_.push_back(DeviceEntry{id, {}});
  device_offsets_.push_back(device_offsets_.back());
  return index;
}

void Dataset::SetFlows(std::vector<Flow> flows) {
  auto owned = std::make_shared<const std::vector<Flow>>(std::move(flows));
  const std::span<const Flow> view(*owned);
  BorrowFlows(view, std::move(owned));
}

void Dataset::BorrowFlows(std::span<const Flow> flows,
                          std::shared_ptr<const void> keepalive) {
  // One scan checks every reference and the (device, start) order — the
  // figure passes binary-search timestamps per device, so a bad array must
  // fail here, not as UB or a silently wrong figure in a consumer — and
  // records where each device's slice begins.
  const auto fail = [](std::size_t i, const char* what) {
    throw std::invalid_argument("flow " + std::to_string(i) + " " + what);
  };
  const std::size_t num_devices = devices_.size();
  const std::size_t num_domains = domains_.size();
  std::vector<std::uint64_t> offsets(num_devices + 1, 0);
  DeviceIndex device = 0;
  std::uint32_t start = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.device >= num_devices) fail(i, "references invalid device");
    if (f.domain >= num_domains) fail(i, "references invalid domain");
    if (f.device != device) {
      if (f.device < device) fail(i, "not in (device, start) order");
      std::fill(offsets.begin() + device + 1, offsets.begin() + f.device + 1, i);
      device = f.device;
    } else if (f.start_offset_s < start) {
      fail(i, "not in (device, start) order");
    }
    start = f.start_offset_s;
  }
  std::fill(offsets.begin() + device + 1, offsets.end(), flows.size());
  flows_ = flows;
  flow_owner_ = std::move(keepalive);
  device_offsets_ = std::move(offsets);
}

std::span<const Flow> Dataset::FlowsOfDevice(DeviceIndex i) const {
  if (i >= devices_.size()) throw std::out_of_range("FlowsOfDevice: bad index");
  const std::uint64_t begin = device_offsets_[i];
  const std::uint64_t end = device_offsets_[i + 1];
  return flows_.subspan(begin, end - begin);
}

std::string_view Dataset::DomainName(DomainId id) const {
  return domains_.at(id);
}

DomainBytesTally::DomainBytesTally(const Dataset& dataset)
    : dataset_(&dataset), slot_(dataset.num_domains(), 0) {}

std::span<const classify::DomainBytes> DomainBytesTally::Of(DeviceIndex device) {
  for (const DomainId id : ids_) slot_[id] = 0;
  list_.clear();
  ids_.clear();
  for (const Flow& f : dataset_->FlowsOfDevice(device)) {
    if (f.domain == kNoDomain) continue;
    std::uint32_t& slot = slot_[f.domain];
    if (slot == 0) {
      list_.push_back({dataset_->DomainName(f.domain), 0});
      ids_.push_back(f.domain);
      slot = static_cast<std::uint32_t>(list_.size());
    }
    list_[slot - 1].bytes += f.total_bytes();
  }
  return list_;
}

}  // namespace lockdown::core
