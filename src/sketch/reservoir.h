// Order-independent uniform sample: bottom-k by hashed priority.
//
// The classic Algorithm R reservoir depends on arrival order, so this
// sketch instead assigns every distinct item key a pseudorandom priority =
// SipHash24(seed key, item key) and keeps the k entries with the smallest
// priorities. Because the priority is a pure function of the item key, the
// kept set is a deterministic function of the *set* of keys fed in,
// independent of arrival order. Over distinct keys the selection is uniform
// (each key's priority is an independent uniform draw).
//
// The streaming study samples per-(day, class) device byte totals and
// session-length populations with this; item keys are device indices or
// global session ids, which are unique within each reservoir's population,
// so the uniformity guarantee applies directly. When the population is no
// larger than the capacity the sample is the whole population and downstream
// statistics are exact (`exact()` reports this).
#pragma once

#include <cstdint>
#include <vector>

#include "sketch/sketch.h"

namespace lockdown::sketch {

class ReservoirSample {
 public:
  struct Entry {
    std::uint64_t priority;
    std::uint64_t key;
    double value;
  };

  /// Keeps at most `capacity` entries. Throws std::invalid_argument if
  /// capacity is zero.
  ReservoirSample(std::size_t capacity, util::SipHashKey key);

  [[nodiscard]] static ReservoirSample Seeded(std::size_t capacity,
                                              std::uint64_t seed,
                                              std::uint64_t stream = 0);

  /// Offers one (item key, value) pair. Item keys must be unique within the
  /// population for the uniformity guarantee; duplicate keys are retained as
  /// separate entries (they share a priority, so they are kept or evicted
  /// together deterministically, preserving order-independence).
  void Add(std::uint64_t item_key, double value);

  /// Sampled values sorted by ascending item key — the same order the exact
  /// study keeps devices in, so exact samples reproduce its statistics
  /// bit-for-bit even where downstream code is summation-order-sensitive.
  [[nodiscard]] std::vector<double> Values() const;

  /// Entries sorted by (priority, key); exposed for property tests.
  [[nodiscard]] std::vector<Entry> SortedEntries() const;

  /// Number of Add calls observed.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

  /// True when nothing has been evicted: the sample IS the population.
  [[nodiscard]] bool exact() const noexcept { return seen_ <= capacity_; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return entries_.capacity() * sizeof(Entry) + sizeof(*this);
  }
  /// Fraction of capacity in use, in [0, 1]; 1 once the sample is sampling.
  [[nodiscard]] double FillRatio() const noexcept {
    return capacity_ == 0
               ? 0.0
               : static_cast<double>(entries_.size()) /
                     static_cast<double>(capacity_);
  }

 private:
  static bool EntryLess(const Entry& a, const Entry& b) noexcept;
  void Offer(const Entry& entry);

  std::size_t capacity_;
  util::SipHashKey key_;
  std::uint64_t seen_ = 0;
  // Max-heap on EntryLess once at capacity; front() is the eviction candidate.
  std::vector<Entry> entries_;
};

}  // namespace lockdown::sketch
