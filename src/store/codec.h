// Bounds-checked little-endian encode/decode helpers for every LDS section,
// field by field, so the format is host-endianness-independent. The one
// count rule: a count read from a file sizes an allocation or a loop only as
// the BoundedCount that Decoder::Count or Bound returns.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "store/snapshot.h"

namespace lockdown::store::detail {

class Encoder {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void U16(std::uint16_t v) { Le(v, 2); }
  void U32(std::uint32_t v) { Le(v, 4); }
  void U64(std::uint64_t v) { Le(v, 8); }
  void F32(float v) { U32(std::bit_cast<std::uint32_t>(v)); }
  void Bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void Str(std::string_view s) {
    Bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
  }
  /// LEB128 unsigned varint (1..10 bytes).
  void Uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::byte>(v));
  }
  /// Zigzag-mapped signed varint (small magnitudes of either sign stay
  /// short; the delta codecs use this for timestamp/run-begin deltas).
  void Svarint(std::int64_t v) {
    Uvarint((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  void Reserve(std::size_t n) { buf_.reserve(n); }

 private:
  void Le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
    }
  }
  std::vector<std::byte> buf_;
};

/// A count no larger than the bytes it describes can hold: zero by default,
/// any other value only from Decoder.
class BoundedCount {
 public:
  BoundedCount() noexcept = default;
  [[nodiscard]] std::size_t value() const noexcept { return n_; }

 private:
  friend class Decoder;
  explicit BoundedCount(std::size_t n) noexcept : n_(n) {}
  std::size_t n_ = 0;
};

/// Cursor over a section's bytes; every read is bounds-checked and overruns
/// throw store::Error naming the section.
class Decoder {
 public:
  Decoder(std::span<const std::byte> data, const char* section) noexcept
      : data_(data), section_(section) {}

  [[nodiscard]] std::uint8_t U8() { return static_cast<std::uint8_t>(Take(1)[0]); }
  [[nodiscard]] std::uint16_t U16() { return static_cast<std::uint16_t>(Le(2)); }
  [[nodiscard]] std::uint32_t U32() { return static_cast<std::uint32_t>(Le(4)); }
  [[nodiscard]] std::uint64_t U64() { return Le(8); }
  [[nodiscard]] float F32() { return std::bit_cast<float>(U32()); }
  [[nodiscard]] std::span<const std::byte> Bytes(std::size_t n) { return Take(n); }
  /// LEB128 unsigned varint; throws on truncation and on non-canonical
  /// encodings that overflow 64 bits or run past 10 bytes.
  [[nodiscard]] std::uint64_t Uvarint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const auto b = static_cast<std::uint8_t>(Take(1)[0]);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // The 10th byte has room for only one payload bit.
        if (shift == 63 && b > 1) break;
        return v;
      }
    }
    throw Error(std::string("overlong varint in ") + section_ + " section");
  }
  [[nodiscard]] std::int64_t Svarint() {
    const std::uint64_t z = Uvarint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  [[nodiscard]] std::string_view Str(std::size_t n) {
    const auto b = Take(n);
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  /// Checks that `count` items, each taking at least `min_bytes_per_item`
  /// (> 0) of the bytes not yet read, fit in them; throws store::Error
  /// otherwise. It divides, so no count can wrap into a pass.
  [[nodiscard]] BoundedCount Bound(std::uint64_t count,
                                   std::size_t min_bytes_per_item,
                                   const char* item) const {
    if (count > remaining() / min_bytes_per_item) {
      throw Error(std::string(section_) + " section size disagrees with " +
                  item + " count");
    }
    return BoundedCount(static_cast<std::size_t>(count));
  }
  /// Reads a u32 count and bounds it by the bytes after it, as Bound does.
  [[nodiscard]] BoundedCount Count(std::size_t min_bytes_per_item,
                                   const char* item) {
    return Bound(U32(), min_bytes_per_item, item);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  void ExpectDone() const {
    if (pos_ != data_.size()) {
      throw Error(std::string("trailing bytes in ") + section_ + " section");
    }
  }

 private:
  std::span<const std::byte> Take(std::size_t n) {
    if (n > remaining()) {
      throw Error(std::string("truncated ") + section_ + " section");
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::uint64_t Le(int width) {
    const auto b = Take(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  const char* section_;
};

}  // namespace lockdown::store::detail
