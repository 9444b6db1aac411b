// Byte patches of an LDS file that keep its checksums valid: a test patches
// fields in place, then Reseal() recomputes the CRC of every section a patch
// touched and the trailer's CRC over the header and section table, so only
// the reader's structural and count checks stand between the file and a
// load.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.h"
#include "store/snapshot.h"
#include "util/crc32c.h"

namespace lockdown::store::testing {

class PatchedSnapshot {
 public:
  /// Reads `source`, which must be a valid snapshot.
  explicit PatchedSnapshot(const std::filesystem::path& source)
      : info_(InspectSnapshot(source)) {
    std::ifstream in(source, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), {});
  }

  [[nodiscard]] const SnapshotInfo& info() const noexcept { return info_; }
  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }

  /// The section named `name` as the source file described it; throws
  /// std::out_of_range when there is none.
  [[nodiscard]] const SectionInfo& section(std::string_view name) const {
    return info_.sections.at(slot(name));
  }
  /// File offset of section `name`'s descriptor in the table.
  [[nodiscard]] std::uint64_t descriptor(std::string_view name) const {
    return kHeaderSize + slot(name) * kSectionDescSize;
  }

  [[nodiscard]] std::uint64_t Get(std::uint64_t at, int width) const {
    std::uint64_t v = 0;
    for (int b = 0; b < width; ++b) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[at + b]))
           << (8 * b);
    }
    return v;
  }
  /// Writes `value`'s low `width` bytes little-endian at `at`.
  void Put(std::uint64_t at, std::uint64_t value, int width) {
    for (int b = 0; b < width; ++b) {
      bytes_[at + b] = static_cast<char>(value >> (8 * b));
      touched_.push_back(at + b);
    }
  }

  /// Recomputes the CRC of each section that a patch since the last Reseal
  /// touched, in its payload or in its descriptor, as the table now
  /// describes it, and then the trailer's CRC over the header and as many
  /// descriptors as the header claims and the file holds.
  void Reseal() {
    const std::uint64_t trailer = bytes_.size() - kTrailerSize;
    const std::uint64_t count = std::min<std::uint64_t>(
        Get(20, 4), (trailer - kHeaderSize) / kSectionDescSize);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t desc = kHeaderSize + i * kSectionDescSize;
      const std::uint64_t offset = Get(desc + 8, 8);
      const std::uint64_t size = Get(desc + 16, 8);
      if (offset > trailer || size > trailer - offset) continue;
      const bool touched = std::any_of(
          touched_.begin(), touched_.end(), [&](std::uint64_t at) {
            return (at >= desc && at < desc + kSectionDescSize) ||
                   (at >= offset && at - offset < size);
          });
      if (touched) Put32NoTouch(desc + 24, Crc(offset, size));
    }
    Put32NoTouch(trailer + 8, Crc(0, kHeaderSize + count * kSectionDescSize));
    touched_.clear();
  }

  void Write(const std::filesystem::path& path) const {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  [[nodiscard]] std::uint32_t Crc(std::uint64_t at, std::uint64_t size) const {
    return util::Crc32c(std::as_bytes(std::span<const char>(
        bytes_.data() + at, static_cast<std::size_t>(size))));
  }
  void Put32NoTouch(std::uint64_t at, std::uint32_t value) {
    for (int b = 0; b < 4; ++b) bytes_[at + b] = static_cast<char>(value >> (8 * b));
  }
  /// The position of section `name` in the source's section table.
  [[nodiscard]] std::size_t slot(std::string_view name) const {
    for (std::size_t i = 0; i < info_.sections.size(); ++i) {
      if (info_.sections[i].name == name) return i;
    }
    throw std::out_of_range("no " + std::string(name) + " section");
  }

  SnapshotInfo info_;
  std::string bytes_;
  std::vector<std::uint64_t> touched_;  ///< offsets patched since Reseal
};

}  // namespace lockdown::store::testing
