// Common scaffolding for the bounded-memory sketches.
//
// Every sketch in this library is
//   * deterministic: all hashing is SipHash-2-4 under keys derived from an
//     explicit (seed, stream) pair via util::Pcg32 — the same seed always
//     produces the same sketch state for the same input, on every platform;
//   * mergeable: Merge(other) folds another sketch built with the *same*
//     parameters and seed, and every merge is associative and commutative
//     (proved by tests/sketch/*), so the ParallelFor chunk-ordered merge
//     discipline of the figure engine carries over unchanged — and,
//     stronger, the merged state does not depend on merge order at all;
//   * accountable: MemoryBytes() reports the heap footprint so the sketched
//     study can enforce a hard memory budget instead of asserting one.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "util/hash.h"
#include "util/rng.h"

namespace lockdown::sketch {

/// Derives a SipHash key for a named sub-sketch. Distinct (seed, stream)
/// pairs give independent hash functions; the derivation goes through Pcg32
/// so the key depends on every bit of the seed.
[[nodiscard]] inline util::SipHashKey DeriveKey(std::uint64_t seed,
                                                std::uint64_t stream) noexcept {
  util::Pcg32 rng(seed, stream);
  const auto next64 = [&rng]() {
    return (static_cast<std::uint64_t>(rng.Next()) << 32) | rng.Next();
  };
  return util::SipHashKey{next64(), next64()};
}

[[nodiscard]] inline bool SameKey(const util::SipHashKey& a,
                                  const util::SipHashKey& b) noexcept {
  return a.k0 == b.k0 && a.k1 == b.k1;
}

/// Thrown when merging sketches with incompatible parameters or seeds.
class MergeError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

}  // namespace lockdown::sketch
