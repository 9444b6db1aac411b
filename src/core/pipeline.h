// The measurement pipeline (paper §3, after DeKoven et al.):
//
//   raw tap traffic --Zeek--> flows
//   flows + DHCP logs -------> per-device (MAC) attribution
//   flows + DNS logs --------> per-server domain attribution
//   MAC/IP -------------------> anonymized; raw data discarded
//   devices seen < 14 days ---> discarded (campus visitors)
//
// Collect() runs the synthetic campus through exactly this sequence and
// returns the processed Dataset. The tap exclusion list (parts of UCSD,
// Google Cloud, Amazon, Azure, Riot, Twitch, Qualys, Apple) is applied at
// ingest, as at the real mirror port. Process() runs the same attribution
// stages over pre-collected inputs — the deployment mode where flows and
// logs arrive from disk (see core/offline.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/config.h"
#include "core/dataset.h"
#include "dhcp/lease.h"
#include "dns/record.h"
#include "flow/record.h"
#include "logs/ua_log.h"
#include "privacy/anonymizer.h"
#include "world/catalog.h"

namespace lockdown::sim {
class TrafficGenerator;
}  // namespace lockdown::sim

namespace lockdown::core {

/// Collection statistics, for tests and reporting.
struct CollectionStats {
  std::uint64_t raw_flows = 0;          ///< flows the assembler produced
  std::uint64_t tap_excluded = 0;       ///< tap events dropped by exclusion list
  std::uint64_t unattributed = 0;       ///< flows with no covering DHCP lease
  std::uint64_t visitor_flows = 0;      ///< flows dropped by the 14-day filter
  std::uint64_t devices_observed = 0;   ///< distinct devices pre-filter
  std::uint64_t devices_retained = 0;   ///< distinct devices post-filter
  std::uint64_t ua_sightings = 0;       ///< cleartext UA observations kept
  // Every UA record lands in exactly one of the three UA counters:
  // ua_sightings + ua_unattributed + ua_visitor_dropped == |ua log|.
  std::uint64_t ua_unattributed = 0;    ///< UA records with no covering lease
  std::uint64_t ua_visitor_dropped = 0; ///< UA records from filtered devices

  friend bool operator==(const CollectionStats&, const CollectionStats&) = default;
};

/// Prints the paper's data funnel (§3) as one table: tap-excluded events,
/// then raw flows -> unattributed -> visitor-filtered -> kept, then devices
/// observed -> kept. Kept flows follow from the funnel identity
/// raw = kept + visitor-filtered + unattributed.
void PrintFunnel(const CollectionStats& stats, std::ostream& out);

struct CollectionResult {
  Dataset dataset;
  CollectionStats stats;
};

/// Everything the collection infrastructure stores before processing: the
/// flow records plus the three contemporaneous logs.
struct RawInputs {
  std::vector<flow::FlowRecord> flows;
  std::vector<dhcp::Lease> dhcp_log;
  std::vector<dns::Resolution> dns_log;
  std::vector<logs::UaRecord> ua_log;
  std::uint64_t tap_excluded = 0;  ///< tap events dropped before `flows`
};

/// The flow records the simulated tap yields, plus how many tap events the
/// exclusion list dropped before flow assembly.
struct CapturedFlows {
  std::vector<flow::FlowRecord> flows;
  std::uint64_t tap_excluded = 0;
};

/// Runs `generator` through the tap exclusion list (§3) into the flow
/// assembler: the capture stage shared by MeasurementPipeline::Collect and
/// ExportLogs. The generator's DHCP, DNS and UA logs are filled afterwards.
/// Records collect in fixed page-mapped blocks that never grow, and end in
/// one exactly sized `flows`, each block unmapped once copied.
[[nodiscard]] CapturedFlows CaptureFlows(sim::TrafficGenerator& generator,
                                         const world::ServiceCatalog& catalog);

class MeasurementPipeline {
 public:
  /// Runs generation + the full processing pipeline: Process(Capture(...)).
  [[nodiscard]] static CollectionResult Collect(
      const StudyConfig& config,
      const world::ServiceCatalog& catalog = world::ServiceCatalog::Default());

  /// The collection stage alone: simulates the campus through the tap into
  /// the flow records and the three logs, so one capture can be processed
  /// under several settings.
  [[nodiscard]] static RawInputs Capture(
      const StudyConfig& config,
      const world::ServiceCatalog& catalog = world::ServiceCatalog::Default());

  /// Runs only the processing stages (attribution, anonymization, visitor
  /// filtering) over pre-collected inputs. `stats.raw_flows` and
  /// `stats.tap_excluded` reflect the inputs as given.
  ///
  /// The raw flows leave memory as the dataset fills: the final placement
  /// builds the dataset's flow array on fresh pages and hands each finished
  /// chunk of the raw flows and the per-flow tables back to the kernel
  /// (util::ReleasePages), so the two flow arrays are never both resident.
  ///
  /// `threads` shards the attribution and retention/DNS-mapping passes
  /// across a thread pool (0 = LOCKDOWN_THREADS/hardware; see
  /// util::ResolveThreadCount). The dataset is assembled by merging the
  /// per-chunk results in chunk order, so device indices, interned-domain
  /// ids, flow order, and every CollectionStats counter are byte-identical
  /// for any thread count.
  [[nodiscard]] static CollectionResult Process(RawInputs inputs,
                                                const privacy::Anonymizer& anonymizer,
                                                int visitor_min_days,
                                                int threads = 0);

  /// The anonymizer a given config uses. Exposed so simulation-side tooling
  /// (accuracy scoring against ground truth) can link pseudonyms; a real
  /// deployment would never persist this key.
  [[nodiscard]] static privacy::Anonymizer MakeAnonymizer(const StudyConfig& config);
};

}  // namespace lockdown::core
