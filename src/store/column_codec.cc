#include "store/column_codec.h"

#include <bit>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "store/format.h"

namespace lockdown::store::detail {

namespace {

/// What ReadCount checks a column's count prefix against: the decoded
/// size the column advertises in its raw-size prefix (what the equivalent
/// raw section would occupy, in per-flow field bytes) and the fewest payload
/// bytes one flow can take in it.
struct ColumnLayout {
  const char* section;
  std::uint64_t raw_bytes;
  std::uint64_t min_bytes;
};
/// A one-byte varint delta.
constexpr ColumnLayout kTimestamps{"col-timestamps", 4, 1};
/// A one-byte varint dictionary ref.
constexpr ColumnLayout kDomains{"col-domains", 4, 1};
/// The 40-byte flow minus start, domain and padding; f32 duration, one-byte
/// device delta, u32 server_ip, u16 port, u8 proto and two one-byte byte
/// counts.
constexpr ColumnLayout kRest{"col-rest", 31, 14};

[[noreturn]] void Corrupt(const char* section, const std::string& what) {
  throw Error(std::string(section) + " section: " + what);
}

/// Reads a column's raw-size and count prefix and checks the count against
/// the meta section's and against what the rest of the payload can hold,
/// so no caller sizes a flow array by a count the payload cannot fill.
/// Divides rather than multiplies, so a hostile count cannot wrap into a
/// match.
std::uint64_t ReadCount(Decoder& dec, const ColumnLayout& column,
                        std::uint64_t expected_count) {
  const std::uint64_t raw = dec.U64();
  const std::uint64_t count = dec.U64();
  if (count != expected_count) {
    Corrupt(column.section, "count disagrees with meta section");
  }
  if (count > dec.remaining() / column.min_bytes) {
    Corrupt(column.section, "count exceeds what the payload can hold");
  }
  if (raw % column.raw_bytes != 0 || raw / column.raw_bytes != count) {
    Corrupt(column.section, "raw size disagrees with count");
  }
  return count;
}

/// Bytes Encoder::Uvarint writes for `v`.
constexpr std::size_t UvarintSize(std::uint64_t v) noexcept {
  return 1 + static_cast<std::size_t>(std::bit_width(v | 1) - 1) / 7;
}

}  // namespace

Encoder EncodeTimestampColumn(std::span<const core::Flow> flows) {
  Encoder enc;
  enc.Reserve(16 + flows.size() * 2);
  enc.U64(flows.size() * kTimestamps.raw_bytes);
  enc.U64(flows.size());
  std::int64_t prev = 0;
  for (const core::Flow& f : flows) {
    const auto ts = static_cast<std::int64_t>(f.start_offset_s);
    enc.Svarint(ts - prev);
    prev = ts;
  }
  return enc;
}

void CheckColumnCount(SectionKind column, std::span<const std::byte> payload,
                      std::uint64_t expected_count) {
  const ColumnLayout* layout = nullptr;
  switch (column) {
    case SectionKind::kColTimestamps: layout = &kTimestamps; break;
    case SectionKind::kColDomains: layout = &kDomains; break;
    case SectionKind::kColRest: layout = &kRest; break;
    default: throw std::invalid_argument("CheckColumnCount: not a flow column");
  }
  Decoder dec(payload, layout->section);
  (void)ReadCount(dec, *layout, expected_count);
}

void DecodeTimestampColumn(std::span<const std::byte> payload,
                           std::span<core::Flow> flows) {
  Decoder dec(payload, kTimestamps.section);
  (void)ReadCount(dec, kTimestamps, flows.size());
  std::int64_t prev = 0;
  for (core::Flow& f : flows) {
    const std::int64_t ts = prev + dec.Svarint();
    if (ts < 0 || ts > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kTimestamps.section, "timestamp out of u32 range");
    }
    f.start_offset_s = static_cast<std::uint32_t>(ts);
    prev = ts;
  }
  dec.ExpectDone();
}

Encoder EncodeDomainColumn(std::span<const core::Flow> flows) {
  // First-appearance dictionary: campus traffic concentrates on a few
  // thousand domains, so refs are short varints.
  std::unordered_map<core::DomainId, std::uint32_t> index;
  std::vector<core::DomainId> dict;
  std::vector<std::uint32_t> refs;
  refs.reserve(flows.size());
  for (const core::Flow& f : flows) {
    const auto [it, inserted] =
        index.emplace(f.domain, static_cast<std::uint32_t>(dict.size()));
    if (inserted) dict.push_back(f.domain);
    refs.push_back(it->second);
  }
  Encoder enc;
  enc.Reserve(24 + dict.size() * 3 + refs.size() * 2);
  enc.U64(flows.size() * kDomains.raw_bytes);
  enc.U64(flows.size());
  enc.U32(static_cast<std::uint32_t>(dict.size()));
  for (const core::DomainId id : dict) enc.Uvarint(id);
  for (const std::uint32_t r : refs) enc.Uvarint(r);
  return enc;
}

void DecodeDomainColumn(std::span<const std::byte> payload,
                        std::span<core::Flow> flows) {
  Decoder dec(payload, kDomains.section);
  const std::uint64_t count = ReadCount(dec, kDomains, flows.size());
  const std::uint32_t dict_size = dec.U32();
  if (count > 0 && dict_size == 0) {
    Corrupt(kDomains.section, "empty dictionary with nonzero flow count");
  }
  if (dict_size > count) {
    Corrupt(kDomains.section, "dictionary larger than the flow count");
  }
  std::vector<std::uint32_t> dict(dict_size);
  for (std::uint32_t i = 0; i < dict_size; ++i) {
    const std::uint64_t id = dec.Uvarint();
    if (id > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kDomains.section, "dictionary entry out of u32 range");
    }
    dict[i] = static_cast<std::uint32_t>(id);
  }
  for (core::Flow& f : flows) {
    const std::uint64_t ref = dec.Uvarint();
    if (ref >= dict_size) Corrupt(kDomains.section, "dictionary ref out of range");
    f.domain = dict[ref];
  }
  dec.ExpectDone();
}

Encoder EncodeRestColumn(std::span<const core::Flow> flows) {
  // Sized exactly up front: the fixed-width fields, then the varints.
  std::size_t size = 16 + flows.size() * (4 + 4 + 2 + 1);
  std::uint64_t prev_device = 0;
  for (const core::Flow& f : flows) {
    size += UvarintSize(f.device - prev_device) + UvarintSize(f.bytes_up) +
            UvarintSize(f.bytes_down);
    prev_device = f.device;
  }
  Encoder enc;
  enc.Reserve(size);
  enc.U64(flows.size() * kRest.raw_bytes);
  enc.U64(flows.size());
  for (const core::Flow& f : flows) enc.F32(f.duration_s);
  prev_device = 0;
  for (const core::Flow& f : flows) {
    // Non-decreasing in (device, start) order, so plain (unsigned) deltas.
    enc.Uvarint(f.device - prev_device);
    prev_device = f.device;
  }
  for (const core::Flow& f : flows) enc.U32(f.server_ip.value());
  for (const core::Flow& f : flows) enc.U16(f.server_port);
  for (const core::Flow& f : flows) enc.U8(f.proto);
  for (const core::Flow& f : flows) enc.Uvarint(f.bytes_up);
  for (const core::Flow& f : flows) enc.Uvarint(f.bytes_down);
  return enc;
}

void DecodeRestColumn(std::span<const std::byte> payload,
                      std::span<core::Flow> flows) {
  Decoder dec(payload, kRest.section);
  (void)ReadCount(dec, kRest, flows.size());
  for (core::Flow& f : flows) f.duration_s = dec.F32();
  std::uint64_t device = 0;
  for (core::Flow& f : flows) {
    device += dec.Uvarint();
    if (device > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kRest.section, "device index out of u32 range");
    }
    f.device = static_cast<std::uint32_t>(device);
  }
  for (core::Flow& f : flows) f.server_ip = net::Ipv4Address(dec.U32());
  for (core::Flow& f : flows) f.server_port = dec.U16();
  for (core::Flow& f : flows) f.proto = dec.U8();
  for (core::Flow& f : flows) f.bytes_up = dec.Uvarint();
  for (core::Flow& f : flows) f.bytes_down = dec.Uvarint();
  dec.ExpectDone();
}

std::uint64_t PeekRawSize(std::span<const std::byte> payload) noexcept {
  if (payload.size() < 8) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(payload[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

}  // namespace lockdown::store::detail
