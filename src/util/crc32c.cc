#include "util/crc32c.h"

#include <array>

namespace lockdown::util {

namespace {

// Slicing-by-8: eight 256-entry tables derived from the reflected Castagnoli
// polynomial, 8 KiB in all, built at compile time. t[0] is the bytewise
// table; t[k][i] is the CRC of byte i followed by k zero bytes, so one step
// folds eight input bytes with eight independent lookups. Portable C++ on
// purpose: no intrinsics and no CPU dispatch.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables MakeTables() noexcept {
  constexpr std::uint32_t kPoly = 0x82F63B78u;
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian 32-bit load, byte by byte (compilers fuse it into one load).
std::uint32_t Load32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t Advance(std::uint32_t state, std::span<const std::byte> data) noexcept {
  const auto& t = kTables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = state ^ Load32(p);
    const std::uint32_t hi = Load32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    state = (state >> 8) ^ t[0][(state ^ static_cast<std::uint32_t>(*p++)) & 0xFFu];
  }
  return state;
}

}  // namespace

std::uint32_t Crc32c(std::span<const std::byte> data) noexcept {
  return Advance(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

void Crc32cAccumulator::Update(std::span<const std::byte> data) noexcept {
  state_ = Advance(state_, data);
}

}  // namespace lockdown::util
