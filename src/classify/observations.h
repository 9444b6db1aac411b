// Per-device traffic observations — everything the classifier is allowed to
// see. The pipeline records these while ingesting flows; no simulator
// ground truth crosses this boundary. What a device's traffic says (bytes per
// contacted domain) is not stored here: it is derived from the device's flows
// on demand (core::DomainBytesTally) and handed to the classifier as a span
// of DomainBytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lockdown::classify {

/// Bytes a device exchanged with one remote domain (DNS-mapped). A device's
/// list names each contacted domain once; raw-IP traffic is not in it.
struct DomainBytes {
  std::string_view domain;
  std::uint64_t bytes = 0;
};

struct DeviceObservations {
  /// OUI bits of the device MAC, extracted before anonymization (as the
  /// paper's pipeline does, §3). Meaningless if locally_administered.
  std::uint32_t oui = 0;
  bool locally_administered = false;
  /// Distinct cleartext User-Agent strings seen from the device.
  std::vector<std::string> user_agents;

  void AddUserAgent(std::string_view ua) {
    for (const std::string& seen : user_agents) {
      if (seen == ua) return;
    }
    user_agents.emplace_back(ua);
  }

  friend bool operator==(const DeviceObservations&,
                         const DeviceObservations&) = default;
};

}  // namespace lockdown::classify
