// LDS ("Lockdown Dataset Snapshot") on-disk format, version 6.
//
// The write-once/analyze-many layer: the processed dataset the paper keeps
// after discarding raw data (§3), serialized so every downstream analysis
// starts in milliseconds instead of a full campus re-simulation. The file is
// columnar and sectioned:
//
//   [FileHeader 64B] [SectionDesc x N] [pad] [section]... [pad] [FileTrailer 16B]
//
// All integers are little-endian. Every section begins at a 64-byte-aligned
// offset and carries a CRC32C in its descriptor; the trailer carries a
// CRC32C over the header + section table. kSections below is the one list
// of section kinds: their names, codecs, the versions that carry them and
// whether those versions require them. The writer emits its rows in table
// order and the reader checks every descriptor against it.
//
// Every count a file states, in the header, the meta section or a section's
// own records, is bounded by the bytes it describes before it sizes an
// allocation or a loop (detail::Decoder::Count and Bound in codec.h); a
// row's flow_bytes is that bound for the meta flow count.
//
//   kMeta          fixed 48B: counts, flow stride, provenance (students/seed)
//   kFlows         num_flows x 40B fixed-stride core::Flow records, in
//                  (device, start) order — the mmap zero-copy target
//   kDeviceOffsets (v1-v5 only) CSR device index, (num_devices+1) x u64
//   kStringPool    interned strings; the first num_domains entries are the
//                  dataset's domain pool in DomainId order (entry 0 = "")
//   kDevices       variable-length device records: pseudonymous id u64 |
//                  OUI u32 | flags u8 | UA count u32 | UA string refs u32...
//                  (v1-v3 add byte/flow totals and a domain-bytes list; see
//                  version 4 below)
//   kStats         core::CollectionStats, 9 x u64 (7 x u64 in version 1;
//                  the reader zero-fills the UA-accounting fields there)
//
// Version 1 and 2 files contain exactly those six sections, each once.
// Version 3 makes the section set variable (the header's section count is
// authoritative) and adds:
//
//   kDayIndex      (v3-v4 only) per-day runs of the flow array, delta-varint.
//                  It is derivable from the flows and no analysis reads it:
//                  the reader checks its bounds, codec and CRC and skips it.
//   kColTimestamps start_offset_s column, zigzag delta-varint coded
//                  (deltas are small within a device run; the sign absorbs
//                  the reset at device boundaries).
//   kColDomains    domain column, dictionary coded (first-appearance
//                  dictionary of distinct DomainIds + per-flow varint ref).
//   kColRest       the remaining flow fields as packed plain columns:
//                  duration f32 | device delta-varint | server_ip u32 |
//                  server_port u16 | proto u8 | bytes_up varint |
//                  bytes_down varint.
//
// A v3+ file stores flows either as kFlows (raw, zero-copy eligible) or as
// the three kCol* sections (`snapshot save --compress`; decoded into an
// owned array on load), never both. Every non-raw section's payload begins
// with a u64 raw (decoded) byte size, and its descriptor's flags word
// carries the codec id, so `snapshot info` can report per-section
// compression ratios without decoding.
//
// Version 4 keeps the v3 section set and drops from each kDevices record
// what the flows already say: v1-v3 records carry total_bytes u64 and
// flow_count u64 after the flags byte, and a (domain string ref u32, bytes
// u64) list with a u32 count after the UAs. The reader decodes those
// legacy fields under the same bounds and string-ref checks and discards
// them; per-device domain bytes are derived from the flow array instead
// (core::DomainBytesTally).
//
// Version 5 is version 4 without kDayIndex.
//
// Version 6 is version 5 without kDeviceOffsets. The device index is a pure
// function of the (device, start)-ordered flows, and core::Dataset derives
// it in the same scan that checks that order on every load. A v1-v5 file
// must still carry the section with the right size and CRC, and its stored
// index must equal the derived one entry for entry, or the load fails.
//
// Writers only produce the current version.
//
// The flow record layout is frozen against core::Flow below; any change to
// that struct is a format break and must bump kFormatVersion.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/dataset.h"
#include "core/pipeline.h"

namespace lockdown::store {

inline constexpr std::array<char, 8> kMagic = {'L', 'D', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr std::array<char, 8> kTrailerMagic = {'L', 'D', 'S', 'F', 'I', 'N', 'I', '1'};
// Version 2 widened kStats from 7 to 9 u64 fields (ua_unattributed,
// ua_visitor_dropped). Version 3 made the section count variable, added the
// kDayIndex section and the optional columnar flow sections
// (kColTimestamps/kColDomains/kColRest), and started recording codec ids in
// the descriptor flags. Version 4 dropped the derivable per-device totals and
// domain-bytes list from kDevices. Version 5 dropped kDayIndex. Version 6
// dropped kDeviceOffsets, which the reader derives from the flows. Versions
// 1-5 remain readable.
inline constexpr std::uint32_t kFormatVersion = 6;
inline constexpr std::uint32_t kMinReadVersion = 1;
/// Written as a u32; reads back as something else on a mixed-endian copy.
inline constexpr std::uint32_t kEndianMarker = 0x0A0B0C0Du;
inline constexpr std::uint64_t kSectionAlign = 64;

inline constexpr std::size_t kHeaderSize = 64;
inline constexpr std::size_t kSectionDescSize = 32;
inline constexpr std::size_t kTrailerSize = 16;
inline constexpr std::size_t kMetaSectionSize = 48;
inline constexpr std::size_t kStatsSectionSize = 9 * sizeof(std::uint64_t);
inline constexpr std::size_t kStatsSectionSizeV1 = 7 * sizeof(std::uint64_t);
inline constexpr std::size_t kFlowStride = 40;

enum class SectionKind : std::uint32_t {
  kMeta = 1,
  kFlows = 2,
  kDeviceOffsets = 3,  ///< stored device index (v1-v5), checked against the flows
  kStringPool = 4,
  kDevices = 5,
  kStats = 6,
  // Version 3:
  kDayIndex = 7,       ///< per-day flow runs (v3-v4), checked and skipped
  kColTimestamps = 8,  ///< start_offset_s column, zigzag delta-varint
  kColDomains = 9,     ///< domain column, dictionary + varint refs
  kColRest = 10,       ///< remaining flow fields, packed columns
};

/// Per-section codec, recorded in the descriptor's flags word. Every coded
/// (non-raw) payload begins with a u64 raw (decoded) size so tools can
/// report compression ratios without decoding.
enum class SectionCodec : std::uint32_t {
  kRaw = 0,
  kDeltaVarint = 1,  ///< zigzag delta-varint streams (timestamps, day index)
  kDictionary = 2,   ///< first-appearance dictionary + varint refs (domains)
  kPacked = 3,       ///< per-field packed columns, varint where it pays
};

/// The flow storage a section belongs to. A v3+ file holds exactly one: the
/// raw kFlows array or every kCol* column.
enum class FlowStorage : std::uint8_t { kNone, kRaw, kColumnar };

/// One row of the section table.
struct SectionDesc {
  SectionKind kind;
  const char* name;
  SectionCodec codec;            ///< the one codec its descriptor may record
  std::uint32_t first_version;   ///< the versions that may carry it
  std::uint32_t last_version;
  bool required;                 ///< every file of those versions has it
  FlowStorage storage;
  /// The fewest payload bytes one flow takes in a flow-storage section
  /// (exactly this many in kFlows; after the 16-byte prefix in a column);
  /// 0 in the others. The reader bounds the meta flow count by it.
  std::uint32_t flow_bytes;
  /// What a salvage load notes when the section fails its CRC; null when
  /// that fails the load.
  const char* salvage;

  [[nodiscard]] constexpr bool CarriedBy(std::uint32_t version) const noexcept {
    return first_version <= version && version <= last_version;
  }
};

/// Every section kind this build knows, row i describing kind i + 1. The
/// writer lays out the rows the current version carries in this order.
inline constexpr std::array<SectionDesc, 10> kSections = {{
    // kind, name, codec, versions, required, storage, flow bytes, salvage note
    {SectionKind::kMeta, "meta", SectionCodec::kRaw, 1, kFormatVersion, true,
     FlowStorage::kNone, 0, nullptr},
    {SectionKind::kFlows, "flows", SectionCodec::kRaw, 1, kFormatVersion, false,
     FlowStorage::kRaw, kFlowStride, nullptr},
    {SectionKind::kDeviceOffsets, "device-offsets", SectionCodec::kRaw, 1, 5,
     true, FlowStorage::kNone, 0, nullptr},
    {SectionKind::kStringPool, "string-pool", SectionCodec::kRaw, 1,
     kFormatVersion, true, FlowStorage::kNone, 0, nullptr},
    {SectionKind::kDevices, "devices", SectionCodec::kRaw, 1, kFormatVersion,
     true, FlowStorage::kNone, 0, nullptr},
    {SectionKind::kStats, "stats", SectionCodec::kRaw, 1, kFormatVersion, true,
     FlowStorage::kNone, 0, "stats zero-filled"},
    {SectionKind::kDayIndex, "day-index", SectionCodec::kDeltaVarint, 3, 4,
     true, FlowStorage::kNone, 0, "day index skipped"},
    // Fewest flow bytes: a one-byte delta; a one-byte ref; f32 duration, a
    // one-byte device delta, u32 server_ip, u16 port, u8 proto, two one-byte
    // byte counts.
    {SectionKind::kColTimestamps, "col-timestamps", SectionCodec::kDeltaVarint,
     3, kFormatVersion, false, FlowStorage::kColumnar, 1, nullptr},
    {SectionKind::kColDomains, "col-domains", SectionCodec::kDictionary, 3,
     kFormatVersion, false, FlowStorage::kColumnar, 1, nullptr},
    {SectionKind::kColRest, "col-rest", SectionCodec::kPacked, 3,
     kFormatVersion, false, FlowStorage::kColumnar, 14, nullptr},
}};

/// The row of section kind `kind`, or null for a kind this build does not
/// know.
[[nodiscard]] constexpr const SectionDesc* FindSection(std::uint32_t kind) noexcept {
  return kind >= 1 && kind <= kSections.size() ? &kSections[kind - 1] : nullptr;
}

[[nodiscard]] constexpr const char* SectionName(SectionKind kind) noexcept {
  const SectionDesc* desc = FindSection(static_cast<std::uint32_t>(kind));
  return desc != nullptr ? desc->name : "unknown";
}

/// The most sections a file of `version` may hold: each kind it may carry,
/// once.
[[nodiscard]] constexpr std::uint32_t MaxSectionCount(std::uint32_t version) noexcept {
  std::uint32_t count = 0;
  for (const SectionDesc& desc : kSections) count += desc.CarriedBy(version) ? 1 : 0;
  return count;
}

static_assert(
    [] {
      for (std::size_t i = 0; i < kSections.size(); ++i) {
        if (static_cast<std::size_t>(kSections[i].kind) != i + 1) return false;
      }
      return true;
    }(),
    "kSections row i must describe section kind i + 1");
static_assert(MaxSectionCount(2) == 6, "v1/v2 files hold exactly six sections");

[[nodiscard]] constexpr const char* CodecName(SectionCodec codec) noexcept {
  switch (codec) {
    case SectionCodec::kRaw: return "raw";
    case SectionCodec::kDeltaVarint: return "delta-varint";
    case SectionCodec::kDictionary: return "dictionary";
    case SectionCodec::kPacked: return "packed";
  }
  return "unknown";
}

// --- Frozen core::Flow layout (the zero-copy contract) -----------------------
// The kFlows section stores exactly kFlowStride bytes per flow in this
// layout, with the padding byte at offset 23 written as zero; an mmap'd
// section can be reinterpreted as a core::Flow array on little-endian hosts.
static_assert(std::is_trivially_copyable_v<core::Flow>);
static_assert(std::is_standard_layout_v<core::Flow>);
static_assert(sizeof(core::Flow) == kFlowStride);
static_assert(alignof(core::Flow) == 8);
static_assert(offsetof(core::Flow, start_offset_s) == 0);
static_assert(offsetof(core::Flow, duration_s) == 4);
static_assert(offsetof(core::Flow, device) == 8);
static_assert(offsetof(core::Flow, domain) == 12);
static_assert(offsetof(core::Flow, server_ip) == 16);
static_assert(offsetof(core::Flow, server_port) == 20);
static_assert(offsetof(core::Flow, proto) == 22);
static_assert(offsetof(core::Flow, bytes_up) == 24);
static_assert(offsetof(core::Flow, bytes_down) == 32);

// kStats serializes CollectionStats field-by-field; catch new fields here.
static_assert(sizeof(core::CollectionStats) == kStatsSectionSize,
              "CollectionStats changed: extend the kStats codec and bump "
              "kFormatVersion");
static_assert(kStatsSectionSize > kStatsSectionSizeV1,
              "new CollectionStats fields must be appended so version-1 "
              "files stay a prefix of the version-2 stats section");

/// Aligns a file offset up to the section alignment.
[[nodiscard]] constexpr std::uint64_t AlignUp(std::uint64_t offset) noexcept {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

}  // namespace lockdown::store
