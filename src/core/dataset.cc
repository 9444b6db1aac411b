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
  const auto by_start = [](const Flow& a, const Flow& b) {
    return a.start_offset_s < b.start_offset_s;
  };
  for (std::size_t d = 0; d + 1 < device_offsets_.size(); ++d) {
    const auto first = flows_.begin() + static_cast<std::ptrdiff_t>(device_offsets_[d]);
    const auto last = flows_.begin() + static_cast<std::ptrdiff_t>(device_offsets_[d + 1]);
    if (!std::is_sorted(first, last, by_start)) std::stable_sort(first, last, by_start);
  }
  finalized_ = true;
  RebuildDayRuns();
}

void Dataset::RebuildDayRuns() {
  const std::span<const Flow> fl = flows();
  day_runs_ = DayRunIndex{};
  // Pass 1: cut the flow array into maximal consecutive same-day runs.
  std::vector<std::uint32_t> run_day;
  std::uint32_t max_day = 0;
  std::size_t i = 0;
  while (i < fl.size()) {
    const std::uint32_t day = fl[i].start_offset_s / util::kSecondsPerDay;
    std::size_t j = i + 1;
    while (j < fl.size() &&
           fl[j].start_offset_s / util::kSecondsPerDay == day) {
      ++j;
    }
    run_day.push_back(day);
    day_runs_.run_begin.push_back(i);
    day_runs_.run_len.push_back(j - i);
    max_day = std::max(max_day, day);
    i = j;
  }
  // Pass 2: CSR by day. Runs land in flow order, which within a day is
  // ascending-begin order (begins ascend globally).
  const std::size_t num_days = fl.empty() ? 0 : static_cast<std::size_t>(max_day) + 1;
  day_runs_.day_offsets.assign(num_days + 1, 0);
  for (const std::uint32_t d : run_day) ++day_runs_.day_offsets[d + 1];
  for (std::size_t d = 1; d < day_runs_.day_offsets.size(); ++d) {
    day_runs_.day_offsets[d] += day_runs_.day_offsets[d - 1];
  }
  std::vector<std::uint64_t> begin_sorted(run_day.size());
  std::vector<std::uint64_t> len_sorted(run_day.size());
  std::vector<std::uint64_t> cursor(day_runs_.day_offsets.begin(),
                                    day_runs_.day_offsets.end());
  for (std::size_t r = 0; r < run_day.size(); ++r) {
    const std::uint64_t slot = cursor[run_day[r]]++;
    begin_sorted[slot] = day_runs_.run_begin[r];
    len_sorted[slot] = day_runs_.run_len[r];
  }
  day_runs_.run_begin = std::move(begin_sorted);
  day_runs_.run_len = std::move(len_sorted);
}

void Dataset::RestoreDayRuns(DayRunIndex runs) {
  const std::span<const Flow> fl = flows();
  const auto bad = [](const char* what) {
    throw std::invalid_argument(std::string("Dataset::RestoreDayRuns: ") + what);
  };
  if (runs.day_offsets.empty() || runs.day_offsets.front() != 0 ||
      runs.day_offsets.back() != runs.run_begin.size() ||
      runs.run_begin.size() != runs.run_len.size() ||
      !std::is_sorted(runs.day_offsets.begin(), runs.day_offsets.end())) {
    bad("inconsistent structure");
  }
  std::uint64_t covered = 0;
  for (int d = 0; d < runs.num_days(); ++d) {
    for (std::uint64_t r = runs.day_offsets[static_cast<std::size_t>(d)];
         r < runs.day_offsets[static_cast<std::size_t>(d) + 1]; ++r) {
      const std::uint64_t begin = runs.run_begin[r];
      const std::uint64_t len = runs.run_len[r];
      if (len == 0 || begin > fl.size() || len > fl.size() - begin) {
        bad("run out of bounds");
      }
      // O(1) spot check per run; the interior is implied by sortedness and
      // covered in full by store::Reader::VerifyInvariants.
      const auto day_of = [&](std::uint64_t k) {
        return fl[static_cast<std::size_t>(k)].start_offset_s /
               util::kSecondsPerDay;
      };
      if (day_of(begin) != static_cast<std::uint32_t>(d) ||
          day_of(begin + len - 1) != static_cast<std::uint32_t>(d)) {
        bad("run day disagrees with flows");
      }
      covered += len;
    }
  }
  if (covered != fl.size()) bad("runs do not cover the flow array");
  day_runs_ = std::move(runs);
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
