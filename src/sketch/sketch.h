// Common scaffolding for the bounded-memory sketches.
//
// Every sketch in this library is
//   * deterministic: all hashing is SipHash-2-4 under keys derived from an
//     explicit (seed, stream) pair via util::Pcg32 — the same seed always
//     produces the same sketch state for the same input, on every platform;
//   * order-independent: the state after a set of updates does not depend
//     on their order (register max, bottom-k on hashed keys, integer adds),
//     so the sketched study can apply each device's updates to one bank,
//     under one mutex, as devices complete on any thread;
//   * accountable: MemoryBytes() reports the heap footprint so the sketched
//     study can enforce a hard memory budget instead of asserting one.
#pragma once

#include <cstdint>

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

}  // namespace lockdown::sketch
