// Differential property tests for flow::Assembler: random event streams run
// through the assembler and through a std::map reference model of the same
// Zeek-style semantics (sweep every sweep_interval, flush connections idle
// for >= inactivity_timeout, flush sweep and Finish batches in (start,
// tuple) order). The streams reuse tuples, send data and close events with
// no open, leave idle gaps at and beyond the timeout, go back in time (the
// assembler clamps), hold more than 1024 live tuples at once (the flat table
// grows) and delete from the middle of colliding probe chains.
#include "flow/assembler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <vector>

namespace lockdown::flow {
namespace {

struct ModelLive {
  util::Timestamp start = 0;
  util::Timestamp last_activity = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
};

// The assembler's contract, written for clarity rather than speed.
class ModelAssembler {
 public:
  explicit ModelAssembler(AssemblerConfig config) : config_(config) {}

  void Ingest(const TapEvent& ev) {
    const util::Timestamp ts = std::max(ev.ts, now_);
    now_ = ts;
    if (now_ - last_sweep_ >= config_.sweep_interval) {
      std::vector<std::pair<net::FiveTuple, ModelLive>> idle;
      for (const auto& [tuple, live] : table_) {
        if (now_ - live.last_activity >= config_.inactivity_timeout) {
          idle.emplace_back(tuple, live);
        }
      }
      for (const auto& entry : idle) table_.erase(entry.first);
      EmitSorted(idle);
      last_sweep_ = now_;
    }
    const auto it = table_.find(ev.tuple);
    switch (ev.kind) {
      case EventKind::kOpen:
        if (it != table_.end()) Emit(ev.tuple, it->second);
        table_[ev.tuple] = ModelLive{ts, ts, ev.bytes_up, ev.bytes_down};
        break;
      case EventKind::kData:
        if (it == table_.end()) {
          ++partials_;
          table_[ev.tuple] = ModelLive{ts, ts, ev.bytes_up, ev.bytes_down};
        } else {
          it->second.last_activity = ts;
          it->second.bytes_up += ev.bytes_up;
          it->second.bytes_down += ev.bytes_down;
        }
        break;
      case EventKind::kClose:
        if (it == table_.end()) {
          ++partials_;
        } else {
          it->second.last_activity = ts;
          it->second.bytes_up += ev.bytes_up;
          it->second.bytes_down += ev.bytes_down;
          Emit(ev.tuple, it->second);
          table_.erase(it);
        }
        break;
    }
  }

  void Finish() {
    std::vector<std::pair<net::FiveTuple, ModelLive>> all(table_.begin(), table_.end());
    table_.clear();
    EmitSorted(all);
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::uint64_t partials() const { return partials_; }
  [[nodiscard]] const std::vector<FlowRecord>& records() const { return records_; }

 private:
  void EmitSorted(std::vector<std::pair<net::FiveTuple, ModelLive>>& batch) {
    std::sort(batch.begin(), batch.end(), [](const auto& a, const auto& b) {
      return std::tie(a.second.start, a.first) < std::tie(b.second.start, b.first);
    });
    for (const auto& [tuple, live] : batch) Emit(tuple, live);
  }

  void Emit(const net::FiveTuple& t, const ModelLive& live) {
    FlowRecord r;
    r.start = live.start;
    r.duration_s = static_cast<double>(live.last_activity - live.start);
    r.client_ip = t.src_ip;
    r.server_ip = t.dst_ip;
    r.server_port = t.dst_port;
    r.proto = t.proto;
    r.bytes_up = live.bytes_up;
    r.bytes_down = live.bytes_down;
    records_.push_back(r);
  }

  AssemblerConfig config_;
  std::map<net::FiveTuple, ModelLive> table_;
  std::vector<FlowRecord> records_;
  util::Timestamp now_ = 0;
  util::Timestamp last_sweep_ = 0;
  std::uint64_t partials_ = 0;
};

bool SameRecord(const FlowRecord& a, const FlowRecord& b) {
  return a.start == b.start && a.duration_s == b.duration_s &&
         a.client_ip == b.client_ip && a.server_ip == b.server_ip &&
         a.server_port == b.server_port && a.proto == b.proto &&
         a.bytes_up == b.bytes_up && a.bytes_down == b.bytes_down;
}

net::FiveTuple TupleOf(std::uint32_t i) {
  return net::FiveTuple{net::Ipv4Address(0x0A000000u + i / 7),
                        net::Ipv4Address(0x40000000u + (i % 7) * 977u),
                        static_cast<net::Port>(32768 + i % 5000),
                        static_cast<net::Port>(i % 3 == 0 ? 443 : 8801),
                        i % 3 == 0 ? net::Protocol::kTcp : net::Protocol::kUdp};
}

// Runs `events` through both implementations and checks every record, the
// table size after each event, and the (start, tuple) order of every batch
// a sweep or Finish flushes. Returns the largest table size seen.
std::size_t ExpectMatchesModel(const std::vector<TapEvent>& events,
                               AssemblerConfig config) {
  std::vector<FlowRecord> got;
  Assembler assembler(config, [&got](const FlowRecord& r) { got.push_back(r); });
  ModelAssembler model(config);
  // The record keeps no source port, so only the (start, src, dst) prefix of
  // the (start, tuple) order is visible here; the model comparison below
  // pins the rest.
  const auto key = [](const FlowRecord& r) {
    return std::tie(r.start, r.client_ip, r.server_ip);
  };
  std::size_t peak = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::size_t before = got.size();
    assembler.Ingest(events[i]);
    model.Ingest(events[i]);
    if (assembler.table_size() != model.size()) {
      ADD_FAILURE() << "table size " << assembler.table_size() << " vs model "
                    << model.size() << " after event " << i;
      return peak;
    }
    peak = std::max(peak, model.size());
    // All records but the event's own close or reuse flush come from the
    // sweep.
    const std::size_t own =
        got.size() > before && events[i].kind != EventKind::kData ? 1 : 0;
    for (std::size_t r = before + 1; r + own < got.size(); ++r) {
      EXPECT_LE(key(got[r - 1]), key(got[r])) << "sweep batch at event " << i;
    }
  }
  const std::size_t before_finish = got.size();
  assembler.Finish();
  model.Finish();
  EXPECT_EQ(assembler.table_size(), 0u);
  for (std::size_t r = before_finish + 1; r < got.size(); ++r) {
    EXPECT_LE(key(got[r - 1]), key(got[r])) << "Finish batch";
  }
  EXPECT_EQ(got.size(), model.records().size());
  for (std::size_t r = 0; r < std::min(got.size(), model.records().size()); ++r) {
    EXPECT_TRUE(SameRecord(got[r], model.records()[r])) << "record " << r;
  }
  EXPECT_EQ(assembler.records_emitted(), got.size());
  EXPECT_EQ(assembler.partial_events(), model.partials());
  return peak;
}

TEST(AssemblerProperty, RandomStreamsMatchMapModel) {
  AssemblerConfig config;  // 15-minute timeout, 1-minute sweeps
  std::mt19937_64 rng(20200315);
  for (int round = 0; round < 40; ++round) {
    // Every fourth round draws from 3000 tuples with rare gaps, so well over
    // 1024 connections are live at once; the others reuse a few hundred
    // tuples and go idle often.
    const bool wide = round % 4 == 0;
    const std::uint32_t universe = wide ? 3000 : 40 + rng() % 200;
    const std::uint64_t gap_odds = wide ? 4000 : 10;
    const int num_events = wide ? 8000 : 4000;
    std::vector<TapEvent> events;
    util::Timestamp t = static_cast<util::Timestamp>(rng() % 100);
    for (int i = 0; i < num_events; ++i) {
      if (rng() % gap_odds == 0) {
        // An idle gap just below, at or just beyond the timeout, or a long
        // silence after which everything live is idle.
        t += rng() % 2 == 0
                 ? config.inactivity_timeout + static_cast<util::Timestamp>(rng() % 3) - 1
                 : config.inactivity_timeout * static_cast<util::Timestamp>(2 + rng() % 3);
      } else {
        t += wide ? static_cast<util::Timestamp>(rng() % 4 == 0)
                  : static_cast<util::Timestamp>(rng() % 45);
      }
      // Occasionally an event from the past, which the assembler clamps.
      const util::Timestamp ts =
          rng() % 25 == 0 ? t - static_cast<util::Timestamp>(rng() % 600) : t;
      const std::uint64_t k = rng() % 10;
      const EventKind kind =
          k < 4 ? EventKind::kOpen : (k < 8 ? EventKind::kData : EventKind::kClose);
      events.push_back(TapEvent{ts, kind,
                                TupleOf(static_cast<std::uint32_t>(rng() % universe)),
                                rng() % 5000, rng() % 50000});
    }
    const std::size_t peak = ExpectMatchesModel(events, config);
    if (wide) {
      EXPECT_GT(peak, 1024u) << "round " << round;
    }
    if (HasFailure()) return;
  }
}

TEST(AssemblerProperty, GrowsPastOneThousandTwentyFourLiveTuples) {
  std::mt19937_64 rng(7);
  std::vector<std::uint32_t> ids(3000);
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::vector<TapEvent> events;
  util::Timestamp t = 0;
  for (const std::uint32_t id : ids) {
    events.push_back(TapEvent{t++ / 8, EventKind::kOpen, TupleOf(id), 1, 2});
  }
  // Every tuple live at once, then data and closes in random order, so the
  // grown table deletes from everywhere in its probe chains.
  std::shuffle(ids.begin(), ids.end(), rng);
  for (const std::uint32_t id : ids) {
    events.push_back(TapEvent{t++ / 8, EventKind::kData, TupleOf(id), 3, 4});
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < ids.size() / 2; ++i) {
    events.push_back(TapEvent{t++ / 8, EventKind::kClose, TupleOf(ids[i]), 5, 6});
  }
  // The other half goes idle and is flushed by a sweep, then by Finish for
  // the ones reopened after it.
  const util::Timestamp later = t / 8 + AssemblerConfig{}.inactivity_timeout;
  events.push_back(TapEvent{later, EventKind::kOpen, TupleOf(5000), 0, 0});
  for (std::size_t i = ids.size() / 2; i < ids.size(); i += 3) {
    events.push_back(TapEvent{later + 1, EventKind::kData, TupleOf(ids[i]), 7, 8});
  }
  EXPECT_EQ(ExpectMatchesModel(events, AssemblerConfig{}), ids.size());
}

TEST(AssemblerProperty, DeletesInTheMiddleOfAProbeChain) {
  // Tuples whose hashes share one home slot in the initial 2048-slot table
  // form a single probe chain; closing its head and middle members must keep
  // every later member reachable.
  constexpr std::size_t kInitialMask = 2047;
  const std::size_t home = net::FiveTupleHash{}(TupleOf(0)) & kInitialMask;
  std::vector<net::FiveTuple> chain;
  for (std::uint32_t i = 0; chain.size() < 9; ++i) {
    const net::FiveTuple tuple = TupleOf(i);
    if ((net::FiveTupleHash{}(tuple) & kInitialMask) == home) chain.push_back(tuple);
  }
  // Plus tuples homed on the slots the chain spills into.
  std::vector<net::FiveTuple> neighbours;
  for (std::uint32_t i = 100000; neighbours.size() < 6; ++i) {
    const net::FiveTuple tuple = TupleOf(i);
    const std::size_t ahead = (net::FiveTupleHash{}(tuple) - home) & kInitialMask;
    if (ahead >= 1 && ahead <= 8) neighbours.push_back(tuple);
  }
  std::vector<TapEvent> events;
  util::Timestamp t = 0;
  for (const net::FiveTuple& tuple : chain) {
    events.push_back(TapEvent{t++, EventKind::kOpen, tuple, 1, 1});
  }
  for (const net::FiveTuple& tuple : neighbours) {
    events.push_back(TapEvent{t++, EventKind::kOpen, tuple, 2, 2});
  }
  for (const std::size_t i : {4u, 0u, 7u}) {
    events.push_back(TapEvent{t++, EventKind::kClose, chain[i], 3, 3});
  }
  events.push_back(TapEvent{t++, EventKind::kClose, neighbours[2], 4, 4});
  for (const net::FiveTuple& tuple : chain) {
    events.push_back(TapEvent{t++, EventKind::kData, tuple, 5, 5});
  }
  for (const net::FiveTuple& tuple : neighbours) {
    events.push_back(TapEvent{t++, EventKind::kClose, tuple, 6, 6});
  }
  events.push_back(TapEvent{t++, EventKind::kOpen, chain[0], 7, 7});
  ExpectMatchesModel(events, AssemblerConfig{});
}

}  // namespace
}  // namespace lockdown::flow
