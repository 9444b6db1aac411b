#include "stream/streaming_study.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace lockdown::stream {

using core::FigureEngine;

static_assert(MemoryPlan::kNumHlls == FigureEngine::kNumCounters);
static_assert(MemoryPlan::kNumReservoirs == FigureEngine::kNumPopulations);

namespace {

// Every sketch instance hashes under its own stream id so no two share hash
// functions; family bases are spaced far beyond any family's size.
constexpr std::uint64_t kSiteStreamBase = 1000;
constexpr std::uint64_t kCmsStream = 8000;

std::uint64_t HllStream(std::size_t counter) {
  return counter < FigureEngine::kSiteCounters
             ? counter
             : kSiteStreamBase + (counter - FigureEngine::kSiteCounters);
}

std::uint64_t ReservoirStream(std::size_t cell) {
  constexpr std::array<std::pair<std::size_t, std::uint64_t>, 5> kFamilies = {{
      {FigureEngine::kFig7Cells, 7000},
      {FigureEngine::kFig6Cells, 6000},
      {FigureEngine::kFig4Cells, 4000},
      {FigureEngine::kFig3Cells, 3000},
      {FigureEngine::kFig2Cells, 2000},
  }};
  for (const auto& [first, base] : kFamilies) {
    if (cell >= first) return base + (cell - first);
  }
  return 0;
}

}  // namespace

StreamingStudy::StreamingStudy(const core::Dataset& dataset,
                               const world::ServiceCatalog& catalog,
                               const StreamingOptions& options)
    : FigureEngine(dataset, catalog, options.threads),
      plan_(MemoryPlan::ForBudget(options.memory_budget_bytes)),
      domain_bytes_(plan_.cms_width, plan_.cms_depth, options.sketch_seed,
                    kCmsStream) {
  const std::uint64_t seed = options.sketch_seed;
  hlls_.reserve(kNumCounters);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    hlls_.push_back(
        sketch::HyperLogLog::Seeded(plan_.hll_precision, seed, HllStream(i)));
  }
  reservoirs_.reserve(kNumPopulations);
  for (std::size_t cell = 0; cell < kNumPopulations; ++cell) {
    reservoirs_.push_back(sketch::ReservoirSample::Seeded(
        plan_.reservoir_capacity, seed, ReservoirStream(cell)));
  }
  {
    OBS_SPAN("stream/pass");
    // At least the exact policy's grain, but never more than ~32 chunks, so
    // the per-chunk integer grids stay a bounded fraction of any budget.
    RunPass(std::max(core::kDeviceGrain, (dataset.num_devices() + 31) / 32));
  }
  RecordObsGauges();
}

void StreamingStudy::BeginPass(std::size_t num_chunks) {
  tallies_.assign(num_chunks, core::DomainBytesTally(dataset()));
}

void StreamingStudy::Absorb(std::size_t chunk, const DeviceOffers& offers) {
  // The device's byte total per domain, tallied before taking the lock: one
  // count-min add per distinct domain. Adds are wrap-around integer sums, so
  // every cell equals the one per-flow adds would give.
  core::DomainBytesTally& tally = tallies_[chunk];
  const auto domain_bytes = tally.Of(offers.device);
  const auto domains = tally.ids();
  const util::MutexLock lock(mutex_);
  for (const auto& [cell, value] : offers.values) {
    reservoirs_[cell].Add(offers.device, value);
  }
  for (const auto& [counter, key] : offers.keys) hlls_[counter].Add(key);
  for (std::size_t i = 0; i < domains.size(); ++i) {
    domain_bytes_.Add(domains[i], domain_bytes[i].bytes);
  }
}

void StreamingStudy::EndPass() { tallies_ = {}; }

void StreamingStudy::RecordObsGauges() const {
  if (!obs::MetricsEnabled()) return;

  const auto state = static_cast<double>(TrackedStateBytes());
  const auto budget = static_cast<double>(plan_.budget_bytes);
  obs::GetGauge("stream/state_bytes", "bytes").Set(state);
  obs::GetGauge("stream/budget_bytes", "bytes").Set(budget);
  obs::GetGauge("stream/budget_headroom_bytes", "bytes")
      .Set(budget > state ? budget - state : 0.0);

  double hll_fill = 0.0;
  for (const sketch::HyperLogLog& h : hlls_) hll_fill += h.FillRatio();
  obs::GetGauge("sketch/hll_fill_ratio", "ratio")
      .Set(hll_fill / static_cast<double>(hlls_.size()));

  double res_fill = 0.0;
  std::uint64_t overflow_offers = 0;
  for (const sketch::ReservoirSample& r : reservoirs_) {
    res_fill += r.FillRatio();
    if (r.seen() > r.capacity()) overflow_offers += r.seen() - r.capacity();
  }
  obs::GetGauge("sketch/reservoir_fill_ratio", "ratio")
      .Set(res_fill / static_cast<double>(reservoirs_.size()));
  obs::GetCounter("sketch/reservoir_overflow_offers", "offers")
      .Add(overflow_offers);

  obs::GetGauge("sketch/cms_fill_ratio", "ratio")
      .Set(domain_bytes_.FillRatio());
}

std::vector<StreamingStudy::ActiveDevicesRow>
StreamingStudy::ActiveDevicesPerDay() const {
  std::vector<ActiveDevicesRow> rows(kDays);
  for (std::size_t day = 0; day < kDays; ++day) {
    ActiveDevicesRow& row = rows[day];
    row.day = static_cast<int>(day);
    for (std::size_t c = 0; c < core::kNumReportClasses; ++c) {
      row.by_class[c] = ActiveDevices(row.day, static_cast<core::ReportClass>(c));
      row.total += row.by_class[c];
    }
  }
  return rows;
}

std::uint64_t StreamingStudy::EstimateDomainBytes(core::DomainId domain) const {
  return domain_bytes_.Estimate(domain);
}

StreamingStudy::AccuracyReport StreamingStudy::Accuracy() const {
  AccuracyReport report;
  report.hll_precision = plan_.hll_precision;
  report.hll_relative_standard_error = plan_.HllRelativeStandardError();
  report.cms_epsilon = domain_bytes_.epsilon();
  report.cms_delta = domain_bytes_.delta();
  report.cms_total_bytes = domain_bytes_.total();
  report.reservoir_capacity = plan_.reservoir_capacity;
  report.reservoirs_exact =
      std::all_of(reservoirs_.begin(), reservoirs_.end(),
                  [](const sketch::ReservoirSample& r) { return r.exact(); });
  report.state_bytes = TrackedStateBytes();
  report.budget_bytes = plan_.budget_bytes;
  return report;
}

std::size_t StreamingStudy::TrackedStateBytes() const noexcept {
  std::size_t total = grid_bytes() + domain_bytes_.MemoryBytes();
  for (const sketch::HyperLogLog& hll : hlls_) total += hll.MemoryBytes();
  for (const sketch::ReservoirSample& res : reservoirs_) total += res.MemoryBytes();
  return total;
}

}  // namespace lockdown::stream
