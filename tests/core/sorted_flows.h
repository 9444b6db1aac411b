// Hands hand-built flows to a Dataset in the order the pipeline gives them:
// (device, start), ties in the order the flows were built. Shared by the
// suites that build tiny datasets and by the pipeline's order reference.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/dataset.h"

namespace lockdown::core::testing {

/// Stable sort by (device, start): ties keep their order in `flows`.
inline void StableSortByDeviceStart(std::vector<Flow>& flows) {
  std::stable_sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    return a.device != b.device ? a.device < b.device
                                : a.start_offset_s < b.start_offset_s;
  });
}

/// Sorts `flows` as the pipeline would and makes them the dataset's flows.
inline void SetFlowsSorted(Dataset& ds, std::vector<Flow> flows) {
  StableSortByDeviceStart(flows);
  ds.SetFlows(std::move(flows));
}

}  // namespace lockdown::core::testing
