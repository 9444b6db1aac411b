// The processed dataset: anonymized, attributed, visitor-filtered flow
// records in a compact columnar-ish layout, plus per-device observations for
// classification. This is what remains after the pipeline discards the raw
// data (§3) — every analysis in the paper runs from here.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "classify/observations.h"
#include "net/ipv4.h"
#include "privacy/anonymizer.h"
#include "util/hash.h"
#include "util/time.h"

namespace lockdown::core {

/// Interned domain id; 0 is reserved for "no domain" (raw-IP traffic).
using DomainId = std::uint32_t;
inline constexpr DomainId kNoDomain = 0;

/// Dense per-dataset device index.
using DeviceIndex = std::uint32_t;

/// One attributed flow. 40 bytes; datasets hold millions. The layout is
/// frozen by static_asserts in store/format.h — it is what LDS snapshots
/// mmap directly — so field reordering is a format break (bump
/// store::kFormatVersion).
struct Flow {
  std::uint32_t start_offset_s = 0;  ///< seconds since study start
  float duration_s = 0.0F;
  DeviceIndex device = 0;
  DomainId domain = kNoDomain;
  net::Ipv4Address server_ip;
  std::uint16_t server_port = 0;
  std::uint8_t proto = 6;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_up + bytes_down;
  }
  /// Field-wise; the padding byte is not compared.
  friend bool operator==(const Flow&, const Flow&) = default;
};

/// A retained device: pseudonymous id plus the observations the classifier
/// is allowed to use.
struct DeviceEntry {
  privacy::DeviceId id;
  classify::DeviceObservations observations;

  friend bool operator==(const DeviceEntry&, const DeviceEntry&) = default;
};

/// A dataset's flows are in (device, start) order and its per-device CSR
/// index is derived from them: the only ways to give a dataset its flows,
/// SetFlows and BorrowFlows, run one scan that checks the order and every
/// reference and builds the index, so flows() and device_offsets() agree at
/// every moment.
class Dataset {
 public:
  Dataset();

  // --- Construction ---------------------------------------------------------
  DomainId InternDomain(std::string_view domain);
  /// Appends a device; its slice of the flow array is empty.
  DeviceIndex AddDevice(privacy::DeviceId id);
  [[nodiscard]] DeviceEntry& device_mutable(DeviceIndex i) {
    return devices_[i];
  }
  /// Takes `flows` as the flow array and derives the device index. Every
  /// flow must reference a device and domain the dataset already holds,
  /// devices must never decrease, and starts never decrease within a
  /// device; throws std::invalid_argument otherwise, keeping the previous
  /// flows.
  void SetFlows(std::vector<Flow> flows);
  /// SetFlows over an externally owned array (an mmap'd LDS section, or the
  /// page-mapped array pipeline pass 3 or a decoding load fills), without
  /// copying. `keepalive` owns the backing memory and is held for
  /// the dataset's lifetime.
  void BorrowFlows(std::span<const Flow> flows,
                   std::shared_ptr<const void> keepalive);

  // --- Queries -------------------------------------------------------------
  [[nodiscard]] std::span<const Flow> flows() const noexcept { return flows_; }
  /// CSR per-device flow offsets: device d's flows are
  /// [offsets[d], offsets[d + 1]).
  [[nodiscard]] std::span<const std::uint64_t> device_offsets() const noexcept {
    return device_offsets_;
  }
  [[nodiscard]] std::span<const Flow> FlowsOfDevice(DeviceIndex i) const;
  [[nodiscard]] std::span<const std::string> domains() const noexcept {
    return domains_;
  }
  [[nodiscard]] const DeviceEntry& device(DeviceIndex i) const {
    return devices_.at(i);
  }
  [[nodiscard]] std::size_t num_devices() const noexcept { return devices_.size(); }
  [[nodiscard]] std::size_t num_flows() const noexcept { return flows_.size(); }
  [[nodiscard]] std::string_view DomainName(DomainId id) const;
  [[nodiscard]] std::size_t num_domains() const noexcept { return domains_.size(); }

  /// Absolute timestamp of a flow's start.
  [[nodiscard]] static util::Timestamp StartOf(const Flow& f) noexcept {
    constexpr util::Timestamp kStudyStart = util::StudyCalendar::StartTs();
    return kStudyStart + f.start_offset_s;
  }
  /// Study-day index of a flow.
  [[nodiscard]] static int DayOf(const Flow& f) noexcept {
    return static_cast<int>(f.start_offset_s / util::kSecondsPerDay);
  }

 private:
  std::span<const Flow> flows_;
  std::shared_ptr<const void> flow_owner_;  ///< owns the memory flows_ views
  std::vector<DeviceEntry> devices_;
  std::vector<std::string> domains_;  // [0] = ""
  std::unordered_map<std::string, DomainId, util::StringHash, std::equal_to<>>
      domain_index_;
  std::vector<std::uint64_t> device_offsets_{0};  // num_devices + 1 entries
};

/// Derives each device's (domain name, bytes) list — what the classifier and
/// the Switch rule read — from its slice of the flow array, so no per-device
/// copy of it is stored. One tally holds a scratch array indexed by DomainId;
/// keep one per thread or chunk and reuse it across devices. DNS names map
/// 1:1 to DomainIds, so every contacted domain appears exactly once.
class DomainBytesTally {
 public:
  /// `dataset` must outlive the tally.
  explicit DomainBytesTally(const Dataset& dataset);

  /// The device's DNS-mapped bytes per domain, in first-contact order;
  /// raw-IP flows are skipped. Valid until the next call.
  std::span<const classify::DomainBytes> Of(DeviceIndex device);
  /// DomainIds of the entries the last Of() returned, index for index.
  [[nodiscard]] std::span<const DomainId> ids() const noexcept { return ids_; }

 private:
  const Dataset* dataset_;
  std::vector<std::uint32_t> slot_;  ///< by DomainId: 1 + list index, 0 = absent
  std::vector<classify::DomainBytes> list_;
  std::vector<DomainId> ids_;
};

}  // namespace lockdown::core
