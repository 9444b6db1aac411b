#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string_view>
#include <vector>

namespace lockdown::util {
namespace {

std::uint32_t CrcOf(std::string_view s) {
  return Crc32c(std::as_bytes(std::span<const char>(s.data(), s.size())));
}

TEST(Crc32c, EmptyInput) { EXPECT_EQ(CrcOf(""), 0x00000000u); }

TEST(Crc32c, RfcCheckValue) {
  // The canonical CRC32C check vector (RFC 3720 appendix / zlib, snappy).
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);
}

TEST(Crc32c, IscsiTestPatterns) {
  // RFC 3720 B.4 test patterns.
  std::array<std::byte, 32> buf{};
  EXPECT_EQ(Crc32c(buf), 0x8A9136AAu);
  buf.fill(std::byte{0xFF});
  EXPECT_EQ(Crc32c(buf), 0x62A8AB43u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(Crc32c(buf), 0x46DD794Eu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string_view text =
      "Locked-in during lock-down: undergraduate life on the internet";
  const auto bytes = std::as_bytes(std::span<const char>(text.data(), text.size()));
  for (std::size_t split = 0; split <= text.size(); ++split) {
    Crc32cAccumulator acc;
    acc.Update(bytes.subspan(0, split));
    acc.Update(bytes.subspan(split));
    EXPECT_EQ(acc.value(), Crc32c(bytes)) << "split at " << split;
  }
}

// One-table bytewise CRC32C, independent of the sliced implementation.
std::uint32_t ReferenceCrc32c(std::span<const std::byte> data) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  std::uint32_t state = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    state = (state >> 8) ^ table[(state ^ static_cast<std::uint32_t>(b)) & 0xFFu];
  }
  return state ^ 0xFFFFFFFFu;
}

std::vector<std::byte> PatternBytes(std::size_t n) {
  std::vector<std::byte> data(n);
  std::uint32_t x = 0x9E3779B9u;
  for (std::byte& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  return data;
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..300 cover every tail length of the 8-byte stride many times
  // over; start offsets 0..7 cover every alignment of the first stride.
  const std::vector<std::byte> data = PatternBytes(300 + 8);
  const std::span<const std::byte> all(data);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto slice = all.subspan(offset, len);
      ASSERT_EQ(Crc32c(slice), ReferenceCrc32c(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, AccumulatorSplitAcrossTheStrideMatchesOneShot) {
  const std::vector<std::byte> data = PatternBytes(64);
  const std::span<const std::byte> all(data);
  const std::uint32_t whole = ReferenceCrc32c(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    Crc32cAccumulator acc;
    acc.Update(all.subspan(0, split));
    acc.Update(all.subspan(split));
    EXPECT_EQ(acc.value(), whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::byte> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 + 7);
  }
  const std::uint32_t clean = Crc32c(data);
  for (std::size_t i = 0; i < data.size(); i += 97) {
    data[i] ^= std::byte{0x10};
    EXPECT_NE(Crc32c(data), clean) << "flip at byte " << i;
    data[i] ^= std::byte{0x10};
  }
}

}  // namespace
}  // namespace lockdown::util
