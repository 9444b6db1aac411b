#include "sketch/reservoir.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace lockdown::sketch {

ReservoirSample::ReservoirSample(std::size_t capacity, util::SipHashKey key)
    : capacity_(capacity), key_(key) {
  if (capacity == 0) {
    throw std::invalid_argument("ReservoirSample capacity must be positive");
  }
}

ReservoirSample ReservoirSample::Seeded(std::size_t capacity,
                                        std::uint64_t seed,
                                        std::uint64_t stream) {
  return ReservoirSample(capacity, DeriveKey(seed, stream));
}

bool ReservoirSample::EntryLess(const Entry& a, const Entry& b) noexcept {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.key != b.key) return a.key < b.key;
  // Compare values by bit pattern: a total order (unlike operator< on
  // doubles), which keeps the kept set well-defined even for NaN payloads.
  return std::bit_cast<std::uint64_t>(a.value) <
         std::bit_cast<std::uint64_t>(b.value);
}

void ReservoirSample::Offer(const Entry& entry) {
  if (entries_.size() < capacity_) {
    entries_.push_back(entry);
    std::push_heap(entries_.begin(), entries_.end(), EntryLess);
    return;
  }
  // Full: keep the k smallest. Replace the current maximum iff the new entry
  // is strictly smaller, so duplicates resolve identically in any order.
  if (EntryLess(entry, entries_.front())) {
    std::pop_heap(entries_.begin(), entries_.end(), EntryLess);
    entries_.back() = entry;
    std::push_heap(entries_.begin(), entries_.end(), EntryLess);
  }
}

void ReservoirSample::Add(std::uint64_t item_key, double value) {
  Offer(Entry{util::SipHash24(key_, item_key), item_key, value});
  ++seen_;
}

std::vector<double> ReservoirSample::Values() const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  std::vector<double> values;
  values.reserve(sorted.size());
  for (const Entry& entry : sorted) values.push_back(entry.value);
  return values;
}

std::vector<ReservoirSample::Entry> ReservoirSample::SortedEntries() const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), EntryLess);
  return sorted;
}

}  // namespace lockdown::sketch
