#include "flow/assembler.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace lockdown::flow {

namespace {

// 2048 slots hold 1024 live connections before the first growth.
constexpr std::size_t kInitialSlots = 2048;

}  // namespace

Assembler::Assembler(AssemblerConfig config, Sink sink)
    : config_(config), sink_(std::move(sink)), slots_(kInitialSlots) {}

void Assembler::Emit(const net::FiveTuple& tuple, const Live& live) {
  FlowRecord rec;
  rec.start = live.start;
  rec.duration_s = static_cast<double>(live.last_activity - live.start);
  rec.client_ip = tuple.src_ip;
  rec.server_ip = tuple.dst_ip;
  rec.server_port = tuple.dst_port;
  rec.proto = tuple.proto;
  rec.bytes_up = live.bytes_up;
  rec.bytes_down = live.bytes_down;
  ++emitted_;
  sink_(rec);
}

std::size_t Assembler::Find(const net::FiveTuple& tuple) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = net::FiveTupleHash{}(tuple) & mask;
  while (slots_[i].used && !(slots_[i].tuple == tuple)) i = (i + 1) & mask;
  return i;
}

void Assembler::Insert(std::size_t slot, const net::FiveTuple& tuple,
                       const Live& live) {
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.used) slots_[Find(s.tuple)] = s;
    }
    slot = Find(tuple);
  }
  slots_[slot] = Slot{tuple, live, true};
  ++size_;
}

void Assembler::Erase(std::size_t slot) noexcept {
  // Backward-shift delete: pull each later member of the probe chain into
  // the hole unless its home slot lies cyclically in (hole, member].
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    const std::size_t home = net::FiveTupleHash{}(slots_[j].tuple) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].used = false;
  --size_;
}

void Assembler::EmitFlushed() {
  std::sort(flush_.begin(), flush_.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second.start, a.first) < std::tie(b.second.start, b.first);
  });
  for (const auto& [tuple, live] : flush_) Emit(tuple, live);
  flush_.clear();
}

void Assembler::SweepIdle(util::Timestamp now) {
  // Collect-then-erase: a backward-shift delete moves entries the scan has
  // not reached yet. Ingest skips the whole sweep while oldest_ proves that
  // nothing can be idle, so it runs about once per inactivity timeout, not
  // once per sweep_interval.
  util::Timestamp oldest = now;
  for (const Slot& s : slots_) {
    if (!s.used) continue;
    if (now - s.live.last_activity >= config_.inactivity_timeout) {
      flush_.emplace_back(s.tuple, s.live);
    } else {
      oldest = std::min(oldest, s.live.last_activity);
    }
  }
  oldest_ = oldest;
  for (const auto& entry : flush_) Erase(Find(entry.first));
  EmitFlushed();
}

void Assembler::Ingest(const TapEvent& event) {
  const util::Timestamp ts = event.ts < now_ ? now_ : event.ts;
  now_ = ts;
  if (now_ - last_sweep_ >= config_.sweep_interval) {
    if (now_ - oldest_ >= config_.inactivity_timeout) SweepIdle(now_);
    last_sweep_ = now_;
  }

  const std::size_t slot = Find(event.tuple);
  const bool live = slots_[slot].used;
  switch (event.kind) {
    case EventKind::kOpen: {
      const Live fresh{ts, ts, event.bytes_up, event.bytes_down};
      if (live) {
        // Tuple reuse while an old connection lingers: flush the old one.
        Emit(event.tuple, slots_[slot].live);
        slots_[slot].live = fresh;
      } else {
        Insert(slot, event.tuple, fresh);
      }
      break;
    }
    case EventKind::kData: {
      if (!live) {
        // Mid-stream capture of a connection whose open we missed: treat the
        // first sighting as the open, as Zeek does for partial connections.
        ++partials_;
        Insert(slot, event.tuple, Live{ts, ts, event.bytes_up, event.bytes_down});
        break;
      }
      Live& l = slots_[slot].live;
      l.last_activity = ts;
      l.bytes_up += event.bytes_up;
      l.bytes_down += event.bytes_down;
      break;
    }
    case EventKind::kClose: {
      if (!live) {
        ++partials_;
        break;
      }
      Live& l = slots_[slot].live;
      l.last_activity = ts;
      l.bytes_up += event.bytes_up;
      l.bytes_down += event.bytes_down;
      Emit(event.tuple, l);
      Erase(slot);
      break;
    }
  }
}

void Assembler::Finish() {
  for (Slot& s : slots_) {
    if (!s.used) continue;
    flush_.emplace_back(s.tuple, s.live);
    s.used = false;
  }
  size_ = 0;
  EmitFlushed();
}

}  // namespace lockdown::flow
