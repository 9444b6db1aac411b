#include "core/dataset.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
  return index;
}

void Dataset::Finalize() {
  if (flows_borrowed()) {
    throw std::logic_error("Dataset::Finalize on borrowed flows (already final)");
  }
  // A counting scatter by device keeps insertion order within each device;
  // a stable sort of each device's slice by start then gives exactly the
  // global stable (device, start) order: ties (same device, same start
  // second) keep insertion order, one canonical flow order regardless of
  // libstdc++ sort internals — the parallel-equivalence tests compare
  // datasets byte for byte.
  device_offsets_.assign(devices_.size() + 1, 0);
  for (const Flow& f : flows_) ++device_offsets_[f.device + 1];
  for (std::size_t i = 1; i < device_offsets_.size(); ++i) {
    device_offsets_[i] += device_offsets_[i - 1];
  }
  std::vector<std::uint64_t> cursor(device_offsets_.begin(), device_offsets_.end() - 1);
  std::vector<Flow> sorted(flows_.size());
  for (const Flow& f : flows_) sorted[cursor[f.device]++] = f;
  flows_ = std::move(sorted);
  SortDeviceSlices();
  finalized_ = true;
}

void Dataset::AdoptDeviceBuckets(std::vector<Flow> flows,
                                 std::vector<std::uint64_t> offsets) {
  if (flows_borrowed()) {
    throw std::logic_error("Dataset::AdoptDeviceBuckets on borrowed flows");
  }
  flows_ = std::move(flows);
  RestoreDeviceIndex(std::move(offsets));
  SortDeviceSlices();
}

void Dataset::SortDeviceSlices() {
  const auto by_start = [](const Flow& a, const Flow& b) {
    return a.start_offset_s < b.start_offset_s;
  };
  for (std::size_t d = 0; d + 1 < device_offsets_.size(); ++d) {
    const auto first = flows_.begin() + static_cast<std::ptrdiff_t>(device_offsets_[d]);
    const auto last = flows_.begin() + static_cast<std::ptrdiff_t>(device_offsets_[d + 1]);
    if (!std::is_sorted(first, last, by_start)) std::stable_sort(first, last, by_start);
  }
}

void Dataset::BorrowFlows(std::span<const Flow> flows,
                          std::shared_ptr<const void> keepalive) {
  flows_.clear();
  flows_.shrink_to_fit();
  borrowed_flows_ = flows;
  flow_keepalive_ = std::move(keepalive);
}

void Dataset::RestoreDeviceIndex(std::vector<std::uint64_t> offsets) {
  if (offsets.size() != devices_.size() + 1 || offsets.front() != 0 ||
      offsets.back() != num_flows() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument("Dataset::RestoreDeviceIndex: inconsistent CSR index");
  }
  device_offsets_ = std::move(offsets);
  finalized_ = true;
}

std::span<const Flow> Dataset::FlowsOfDevice(DeviceIndex i) const {
  if (!finalized_) throw std::logic_error("Dataset::FlowsOfDevice before Finalize");
  if (i >= devices_.size()) throw std::out_of_range("FlowsOfDevice: bad index");
  const std::uint64_t begin = device_offsets_[i];
  const std::uint64_t end = device_offsets_[i + 1];
  return flows().subspan(begin, end - begin);
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
