// Bounds-checked little-endian encode/decode helpers for every LDS section,
// field by field, so the format is host-endianness-independent. The one
// count rule: a count read from a file sizes an allocation or a loop only as
// the BoundedCount that Decoder::Count or Bound returns.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "store/snapshot.h"

namespace lockdown::store::detail {

/// Bytes PutUvarint writes at most: a u64 in 7-bit groups.
inline constexpr std::size_t kMaxUvarintBytes = 10;

/// Bytes PutUvarint writes for `v`.
[[nodiscard]] constexpr std::size_t UvarintSize(std::uint64_t v) noexcept {
  return 1 + static_cast<std::size_t>(std::bit_width(v | 1) - 1) / 7;
}

/// Zigzag map: small magnitudes of either sign become small unsigned values,
/// so signed deltas stay short varints.
[[nodiscard]] constexpr std::uint64_t Zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

inline constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Writes the low `width` (<= 8) bytes of `v` little-endian at `p`; returns
/// the end.
inline std::byte* PutLe(std::byte* p, std::uint64_t v, int width) noexcept {
  if constexpr (kLittleEndianHost) {
    std::memcpy(p, &v, static_cast<std::size_t>(width));
  } else {
    for (int i = 0; i < width; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
  }
  return p + width;
}

/// Reads `width` (<= 8) bytes at `p` as a little-endian value.
[[nodiscard]] inline std::uint64_t GetLe(const std::byte* p, int width) noexcept {
  std::uint64_t v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, p, static_cast<std::size_t>(width));
  } else {
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Writes `v` as an LEB128 unsigned varint (UvarintSize(v) bytes) at `p`;
/// returns the end.
inline std::byte* PutUvarint(std::byte* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
  return p;
}

/// A growing byte buffer written field by field. Each field checks the
/// capacity once for its widest encoding, then writes through a cursor.
class Encoder {
 public:
  void U8(std::uint8_t v) { Le(v, 1); }
  void U16(std::uint16_t v) { Le(v, 2); }
  void U32(std::uint32_t v) { Le(v, 4); }
  void U64(std::uint64_t v) { Le(v, 8); }
  void F32(float v) { U32(std::bit_cast<std::uint32_t>(v)); }
  void Bytes(std::span<const std::byte> data) {
    if (data.empty()) return;
    std::memcpy(Append(data.size()).data(), data.data(), data.size());
  }
  void Str(std::string_view s) {
    Bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
  }
  /// Appends `n` bytes for the caller to fill through its own cursors.
  [[nodiscard]] std::span<std::byte> Append(std::size_t n) {
    std::byte* p = Room(n);
    size_ += n;
    return {p, n};
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {buf_.get(), size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Grows the capacity to exactly `n` bytes if it is smaller.
  void Reserve(std::size_t n) {
    if (n > capacity_) Reallocate(n);
  }
  /// Empties the buffer and keeps its capacity.
  void Clear() noexcept { size_ = 0; }

 private:
  /// The write position, with room for at least `n` more bytes.
  std::byte* Room(std::size_t n) {
    if (capacity_ - size_ < n) {
      Reallocate(std::max({size_ + n, 2 * capacity_, std::size_t{64}}));
    }
    return buf_.get() + size_;
  }
  void End(const std::byte* end) noexcept {
    size_ = static_cast<std::size_t>(end - buf_.get());
  }
  void Le(std::uint64_t v, int width) {
    End(PutLe(Room(static_cast<std::size_t>(width)), v, width));
  }
  /// Moves the bytes to a buffer of `capacity` bytes, left unfilled.
  void Reallocate(std::size_t capacity) {
    auto grown = std::make_unique_for_overwrite<std::byte[]>(capacity);
    if (size_ != 0) std::memcpy(grown.get(), buf_.get(), size_);
    buf_ = std::move(grown);
    capacity_ = capacity;
  }

  std::unique_ptr<std::byte[]> buf_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
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
    // Fast path, without a branch per byte: a varint that ends within the
    // next 8 bytes (values below 2^56) is found by its terminator bit and
    // its 7-bit groups are packed in three shift-and-mask steps.
    if (remaining() >= 8) {
      const std::uint64_t word = GetLe(data_.data() + pos_, 8);
      const std::uint64_t stops = ~word & 0x8080808080808080ULL;
      if (stops != 0) {
        pos_ += static_cast<std::size_t>(std::countr_zero(stops) >> 3) + 1;
        return PackGroups(word & (stops ^ (stops - 1)));
      }
    }
    return UvarintByBytes();
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
  /// The bytes not yet read.
  [[nodiscard]] std::span<const std::byte> unread() const noexcept {
    return data_.subspan(pos_);
  }
  void ExpectDone() const {
    if (pos_ != data_.size()) {
      throw Error(std::string("trailing bytes in ") + section_ + " section");
    }
  }

 private:
  [[noreturn]] void Truncated() const {
    throw Error(std::string("truncated ") + section_ + " section");
  }
  std::span<const std::byte> Take(std::size_t n) {
    if (n > remaining()) Truncated();
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// Uvarint's byte-by-byte path: the last bytes of a section and varints
  /// longer than 8 bytes.
  std::uint64_t UvarintByBytes() {
    const std::byte* p = data_.data() + pos_;
    const std::size_t avail = remaining();
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kMaxUvarintBytes; ++i) {
      if (i == avail) Truncated();
      const auto b = static_cast<std::uint8_t>(p[i]);
      v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
      if ((b & 0x80) == 0) {
        // The 10th byte has room for only one payload bit.
        if (i == kMaxUvarintBytes - 1 && b > 1) break;
        pos_ += i + 1;
        return v;
      }
    }
    throw Error(std::string("overlong varint in ") + section_ + " section");
  }
  /// The value of up to 8 varint bytes loaded little-endian (bytes past the
  /// terminator zeroed): the low 7 bits of each byte, concatenated.
  static std::uint64_t PackGroups(std::uint64_t x) noexcept {
    x &= 0x7F7F7F7F7F7F7F7FULL;
    x = ((x & 0x7F007F007F007F00ULL) >> 1) | (x & 0x007F007F007F007FULL);
    x = ((x & 0x3FFF00003FFF0000ULL) >> 2) | (x & 0x00003FFF00003FFFULL);
    return ((x & 0x0FFFFFFF00000000ULL) >> 4) | (x & 0x000000000FFFFFFFULL);
  }
  std::uint64_t Le(int width) {
    return GetLe(Take(static_cast<std::size_t>(width)).data(), width);
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  const char* section_;
};

}  // namespace lockdown::store::detail
