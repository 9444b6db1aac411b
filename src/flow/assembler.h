// Zeek-style connection tracking.
//
// The assembler maintains a table of live connections keyed by 5-tuple,
// accumulates data events, and emits a FlowRecord when the connection closes
// or goes idle past the inactivity timeout (mirroring Zeek's
// tcp_inactivity_timeout behaviour: a long-lived session with an idle gap is
// reported as multiple flows). Events must arrive in non-decreasing time
// order, as they do from a tap.
//
// The table is a flat open-addressing array (linear probing, backward-shift
// delete), so a connection costs no allocation. Connections flushed together
// by an idle sweep or by Finish are emitted in (start, tuple) order, so the
// output never depends on the table's layout.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "flow/event.h"
#include "flow/record.h"

namespace lockdown::flow {

struct AssemblerConfig {
  /// Idle gap after which a live connection is flushed as complete.
  util::Timestamp inactivity_timeout = 15 * util::kSecondsPerMinute;
  /// How often to sweep the table for idle connections.
  util::Timestamp sweep_interval = util::kSecondsPerMinute;
};

/// Streaming flow extractor. Emits records through a sink callback so the
/// pipeline never buffers the full connection set.
class Assembler {
 public:
  using Sink = std::function<void(const FlowRecord&)>;

  Assembler(AssemblerConfig config, Sink sink);

  /// Feeds one tap event. Events must be in non-decreasing `ts` order;
  /// out-of-order events are clamped to the current time.
  void Ingest(const TapEvent& event);

  /// Flushes every live connection (end of capture).
  void Finish();

  /// Live connections currently tracked.
  [[nodiscard]] std::size_t table_size() const noexcept { return size_; }

  /// Records emitted so far.
  [[nodiscard]] std::uint64_t records_emitted() const noexcept { return emitted_; }

  /// Events whose tuple had no open connection (data/close without open);
  /// Zeek reports these as partial connections, we count and fold them in.
  [[nodiscard]] std::uint64_t partial_events() const noexcept { return partials_; }

 private:
  struct Live {
    util::Timestamp start = 0;
    util::Timestamp last_activity = 0;
    std::uint64_t bytes_up = 0;
    std::uint64_t bytes_down = 0;
  };

  struct Slot {
    net::FiveTuple tuple;
    Live live;
    bool used = false;
  };

  void Emit(const net::FiveTuple& tuple, const Live& live);
  /// Emits `flush_` in (start, tuple) order and empties it.
  void EmitFlushed();
  void SweepIdle(util::Timestamp now);

  /// Index of the slot holding `tuple`, or of the empty slot ending its probe
  /// chain when it is absent.
  [[nodiscard]] std::size_t Find(const net::FiveTuple& tuple) const noexcept;
  /// Stores a new connection; `slot` is Find's empty slot for its tuple.
  void Insert(std::size_t slot, const net::FiveTuple& tuple, const Live& live);
  void Erase(std::size_t slot) noexcept;

  AssemblerConfig config_;
  Sink sink_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t size_ = 0;
  std::vector<std::pair<net::FiveTuple, Live>> flush_;  // sweep/Finish scratch
  util::Timestamp now_ = 0;
  util::Timestamp last_sweep_ = 0;
  // Lower bound on every live connection's last_activity: the lowest one the
  // last sweep saw, or that sweep's time if it left the table empty. Before
  // the first sweep it is 0, since Ingest clamps every timestamp to at least
  // now_, which starts at 0. Entries only move forward in time, so no
  // connection can be idle while now - oldest_ < inactivity_timeout, and
  // Ingest skips the sweep.
  util::Timestamp oldest_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t partials_ = 0;
};

}  // namespace lockdown::flow
