// Hashing primitives.
//
// FNV-1a for cheap unkeyed hashing (domain interning, bucketing) and
// SipHash-2-4 for the privacy layer's keyed pseudonymization of MAC/IP
// addresses: with the 128-bit key discarded at the end of a run, pseudonyms
// cannot be reversed, matching the paper's anonymize-then-discard policy.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

namespace lockdown::util {

/// 64-bit FNV-1a over arbitrary bytes.
[[nodiscard]] std::uint64_t Fnv1a64(std::span<const std::byte> data) noexcept;

/// 64-bit FNV-1a over a string.
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view s) noexcept;

/// Transparent string hash: with std::equal_to<>, a string-keyed unordered
/// map can be looked up by string_view without building a std::string.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// 128-bit key for SipHash.
struct SipHashKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

/// SipHash-2-4 (Aumasson & Bernstein) over arbitrary bytes.
[[nodiscard]] std::uint64_t SipHash24(SipHashKey key,
                                      std::span<const std::byte> data) noexcept;

/// SipHash-2-4 over a single 64-bit value (common case: MAC / IPv4 inputs).
[[nodiscard]] std::uint64_t SipHash24(SipHashKey key, std::uint64_t value) noexcept;

}  // namespace lockdown::util
