#include "sim/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/parameters.h"
#include "sim/timeline.h"

namespace lockdown::sim {

namespace p = params;
using flow::EventKind;
using flow::TapEvent;
using util::StudyCalendar;
using util::Timestamp;

TrafficGenerator::TrafficGenerator(GeneratorConfig config,
                                   const world::ServiceCatalog& catalog)
    : config_(config),
      catalog_(&catalog),
      population_(config.population),
      activity_(catalog),
      dhcp_({config.client_pool}, config.dhcp,
            util::Pcg32(config.population.seed, 0xD4C9)),
      resolver_(
          [&catalog](std::string_view qname) { return catalog.ResolveHost(qname); },
          dns::ResolverConfig{config.dns_ttl, 0},
          util::Pcg32(config.population.seed, 0xD45)),
      master_rng_(config.population.seed, 0x7AFF1C),
      port_counter_(population_.devices().size(), 0) {}

bool TrafficGenerator::DeviceActiveToday(const SimDevice& dev, int day,
                                         util::Pcg32& rng) const {
  const StudentPersona& s = population_.student_of(dev);
  if (s.leaves_campus && day >= s.departure_day) return false;
  if (day < dev.first_active_day) return false;

  const bool weekend =
      util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)));
  const bool shutdown = PandemicTimeline::IsShutdown(day);
  double prob = 0.0;
  switch (dev.kind) {
    case DeviceKind::kPhone:
    case DeviceKind::kLaptop:
    case DeviceKind::kDesktop:
      prob = shutdown ? (weekend ? p::kWeekendActiveShutdown : p::kWeekdayActiveShutdown)
                      : (weekend ? p::kWeekendActive : p::kWeekdayActive);
      break;
    case DeviceKind::kTablet:
      prob = shutdown ? 0.80 : 0.55;
      break;
    case DeviceKind::kIotSmall:
    case DeviceKind::kIotTv:
      prob = 0.97;  // always-on while the owner is on campus
      break;
    case DeviceKind::kSwitch:
    case DeviceKind::kConsoleOther:
      prob = shutdown ? p::kConsoleActiveShutdown : p::kConsoleActivePre;
      break;
    case DeviceKind::kMiscGadget:
      prob = shutdown ? p::kSecondaryActiveShutdown : p::kSecondaryActivePre;
      break;
  }
  return rng.Bernoulli(prob);
}

void TrafficGenerator::EmitSession(const SimDevice& dev, const SessionPlan& plan,
                                   bool expose_ua, util::Pcg32& rng,
                                   std::vector<TapEvent>& events) {
  const Timestamp duration_s =
      std::max<Timestamp>(static_cast<Timestamp>(plan.minutes * 60.0), 10);
  const net::Ipv4Address client_ip = dhcp_.Acquire(dev.mac, plan.start);

  bool ua_pending = expose_ua;
  for (const FlowPlan& f : plan.flows) {
    const auto fstart =
        plan.start + static_cast<Timestamp>(f.start_frac * static_cast<double>(duration_s));
    auto fend =
        plan.start + static_cast<Timestamp>(f.end_frac * static_cast<double>(duration_s));
    if (fend <= fstart) fend = fstart + 1;

    net::Ipv4Address server_ip;
    if (f.raw_ip) {
      const net::Cidr block = catalog_->Get(f.service).block;
      server_ip = block.At(1 + rng.UniformInt(0, static_cast<std::int64_t>(
                                                     block.size()) - 3));
    } else {
      const auto resolved = resolver_.Resolve(dev.mac, f.host, fstart);
      if (!resolved) continue;  // NXDOMAIN: nothing to connect to
      server_ip = *resolved;
    }

    net::FiveTuple tuple;
    tuple.src_ip = client_ip;
    tuple.dst_ip = server_ip;
    tuple.src_port =
        static_cast<net::Port>(32768 + (port_counter_[dev.index]++ % 28000));
    tuple.dst_port = f.port;
    tuple.proto = f.proto;

    if (ua_pending && !f.raw_ip) {
      const auto corpus = world::UserAgentsFor(dev.ua_platform);
      if (!corpus.empty()) {
        ua_sightings_.push_back(
            UaSighting{fstart, client_ip,
                       corpus[dev.index % corpus.size()]});
      }
      ua_pending = false;
    }

    // Long flows must show periodic activity or Zeek-style inactivity
    // timeouts would split them: chunk bytes into <=5-minute data events.
    const Timestamp flow_dur = fend - fstart;
    const int chunks =
        std::max(1, static_cast<int>(flow_dur / (5 * util::kSecondsPerMinute)));
    events.push_back(TapEvent{fstart, EventKind::kOpen, tuple, 0, 0});
    std::uint64_t up_left = f.bytes_up;
    std::uint64_t down_left = f.bytes_down;
    for (int c = 0; c < chunks - 1; ++c) {
      const Timestamp ts =
          fstart + flow_dur * (c + 1) / chunks;
      const std::uint64_t up = up_left / static_cast<std::uint64_t>(chunks - c);
      const std::uint64_t down = down_left / static_cast<std::uint64_t>(chunks - c);
      up_left -= up;
      down_left -= down;
      events.push_back(TapEvent{ts, EventKind::kData, tuple, up, down});
    }
    events.push_back(TapEvent{fend, EventKind::kClose, tuple, up_left, down_left});
  }
}

void TrafficGenerator::Run(const TapSink& sink) {
  struct PendingSession {
    std::uint32_t device;
    std::uint32_t rng_slot;
    bool expose_ua;
    SessionPlan plan;
  };
  std::vector<TapEvent> day_events;
  std::vector<SessionPlan> plans;
  std::vector<PendingSession> day_sessions;
  std::vector<util::Pcg32> day_rngs;
  std::vector<std::pair<Timestamp, std::uint32_t>> day_order;

  for (int day = config_.first_day; day < config_.last_day; ++day) {
    day_events.clear();
    day_sessions.clear();
    day_rngs.clear();
    for (const SimDevice& dev : population_.devices()) {
      // Per-(device, day) stream: identical configs replay identical days.
      util::Pcg32 rng = master_rng_.Fork(
          static_cast<std::uint64_t>(dev.index) * 131071ULL +
          static_cast<std::uint64_t>(day));
      if (!DeviceActiveToday(dev, day, rng)) continue;
      plans.clear();
      activity_.PlanDay(population_, dev, day, rng, plans);
      if (plans.empty()) continue;
      std::sort(plans.begin(), plans.end(),
                [](const SessionPlan& a, const SessionPlan& b) {
                  return a.start < b.start;
                });
      // At most one session a day leaks a cleartext UA, scaled by how chatty
      // the device's apps are in plaintext.
      const std::size_t ua_session =
          rng.Bernoulli(dev.ua_visibility)
              ? rng.NextBounded(static_cast<std::uint32_t>(plans.size()))
              : plans.size();
      const auto rng_slot = static_cast<std::uint32_t>(day_rngs.size());
      day_rngs.push_back(rng);
      for (std::size_t i = 0; i < plans.size(); ++i) {
        day_sessions.push_back(PendingSession{dev.index, rng_slot,
                                              i == ua_session,
                                              std::move(plans[i])});
      }
    }
    // Sessions must reach the DHCP server and resolver in global time order
    // — feeding them per-device would let one device's evening resolutions
    // poison the shared DNS cache (and log) for every other device's morning.
    // Ties keep their planning order, which preserves the per-device ordering
    // the DHCP lease logic relies on: sorting (start, index) pairs gives the
    // stable order without moving a PendingSession.
    day_order.clear();
    for (std::uint32_t i = 0; i < day_sessions.size(); ++i) {
      day_order.emplace_back(day_sessions[i].plan.start, i);
    }
    std::sort(day_order.begin(), day_order.end());
    for (const auto& [start, i] : day_order) {
      const PendingSession& ps = day_sessions[i];
      EmitSession(population_.devices()[ps.device], ps.plan, ps.expose_ua,
                  day_rngs[ps.rng_slot], day_events);
    }
    std::sort(day_events.begin(), day_events.end(),
              [](const TapEvent& a, const TapEvent& b) { return a.ts < b.ts; });
    for (const TapEvent& ev : day_events) sink(ev);
  }
}

}  // namespace lockdown::sim
