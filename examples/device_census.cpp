// Device census: runs the classifier over a simulated campus and prints a
// per-class census with the evidence that decided each classification —
// User-Agent strings, OUIs, Saidi-style IoT signatures, and the
// Nintendo-traffic rule.
//
//   $ ./device_census [num_students]
#include <array>
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/pipeline.h"
#include "core/study.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lockdown;

  core::StudyConfig config = core::StudyConfig::Small(300);
  if (argc > 1) config.generator.population.num_students = std::atoi(argv[1]);

  const auto collection = core::MeasurementPipeline::Collect(config);
  const core::LockdownStudy study(collection.dataset,
                                  world::ServiceCatalog::Default());
  const auto& ds = collection.dataset;

  // Census: class x evidence.
  std::map<std::pair<std::string, std::string>, int> census;
  for (core::DeviceIndex i = 0; i < ds.num_devices(); ++i) {
    const auto& c = study.classifications()[i];
    ++census[{classify::ToString(c.device_class), std::string(c.evidence)}];
  }
  util::TablePrinter table({"class", "evidence", "devices"});
  for (const auto& [key, count] : census) {
    table.AddRow({key.first, key.second, std::to_string(count)});
  }
  std::cout << "DEVICE CENSUS over " << ds.num_devices() << " retained devices\n";
  table.Print(std::cout);

  // Show a few concrete devices with their observations.
  std::cout << "\nsample devices:\n";
  core::DomainBytesTally tally(ds);
  int shown = 0;
  for (core::DeviceIndex i = 0; i < ds.num_devices() && shown < 6; i += 37) {
    const auto& obs = ds.device(i).observations;
    const auto& c = study.classifications()[i];
    std::uint64_t bytes = 0;
    for (const core::Flow& f : ds.FlowsOfDevice(i)) bytes += f.total_bytes();
    std::cout << "  device " << i << ": " << classify::ToString(c.device_class)
              << " (evidence: " << c.evidence << ")\n"
              << "    flows=" << ds.FlowsOfDevice(i).size() << " bytes=" << bytes
              << " domains=" << tally.Of(i).size()
              << (obs.locally_administered ? " randomized-mac" : "") << "\n";
    if (!obs.user_agents.empty()) {
      std::cout << "    ua: " << obs.user_agents.front().substr(0, 70) << "...\n";
    }
    ++shown;
  }

  // IoT platform breakdown via the Saidi-style detector.
  const classify::IotDetector iot(world::ServiceCatalog::Default());
  std::map<std::string, int> platforms;
  for (core::DeviceIndex i = 0; i < ds.num_devices(); ++i) {
    if (const auto match = iot.Detect(tally.Of(i))) {
      ++platforms[std::string(match->platform)];
    }
  }
  std::cout << "\nIoT platforms detected (signature threshold "
            << iot.threshold() << "):\n";
  for (const auto& [platform, count] : platforms) {
    std::cout << "  " << platform << ": " << count << "\n";
  }
  return 0;
}
