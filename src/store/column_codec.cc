#include "store/column_codec.h"

#include <bit>
#include <cstddef>
#include <limits>
#include <string>
#include <unordered_map>

namespace lockdown::store::detail {

namespace {

/// What ReadCount checks a column's raw-size prefix against: the decoded
/// size of one flow's fields in the equivalent raw section.
struct ColumnLayout {
  const char* section;
  std::uint64_t raw_bytes;
};
constexpr ColumnLayout kTimestamps{"col-timestamps", 4};
constexpr ColumnLayout kDomains{"col-domains", 4};
/// The 40-byte flow minus start, domain and padding.
constexpr ColumnLayout kRest{"col-rest", 31};

[[noreturn]] void Corrupt(const char* section, const std::string& what) {
  throw Error(std::string(section) + " section: " + what);
}

/// Reads a column's raw-size and count prefix and checks both against the
/// flows the caller decodes into.
void ReadCount(Decoder& dec, const ColumnLayout& column,
               std::uint64_t expected_count) {
  const std::uint64_t raw = dec.U64();
  const std::uint64_t count = dec.U64();
  if (count != expected_count) {
    Corrupt(column.section, "count disagrees with meta section");
  }
  if (raw % column.raw_bytes != 0 || raw / column.raw_bytes != count) {
    Corrupt(column.section, "raw size disagrees with count");
  }
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

void DecodeTimestampColumn(std::span<const std::byte> payload,
                           std::span<core::Flow> flows) {
  Decoder dec(payload, kTimestamps.section);
  ReadCount(dec, kTimestamps, flows.size());
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
  ReadCount(dec, kDomains, flows.size());
  // Each entry is a varint of at least one byte.
  const BoundedCount dict_size = dec.Count(1, "dictionary entry");
  if (!flows.empty() && dict_size.value() == 0) {
    Corrupt(kDomains.section, "empty dictionary with nonzero flow count");
  }
  if (dict_size.value() > flows.size()) {
    Corrupt(kDomains.section, "dictionary larger than the flow count");
  }
  std::vector<std::uint32_t> dict(dict_size.value());
  for (std::uint32_t& entry : dict) {
    const std::uint64_t id = dec.Uvarint();
    if (id > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kDomains.section, "dictionary entry out of u32 range");
    }
    entry = static_cast<std::uint32_t>(id);
  }
  for (core::Flow& f : flows) {
    const std::uint64_t ref = dec.Uvarint();
    if (ref >= dict.size()) Corrupt(kDomains.section, "dictionary ref out of range");
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
  ReadCount(dec, kRest, flows.size());
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
  return payload.size() < 8 ? 0 : Decoder(payload, "coded").U64();
}

}  // namespace lockdown::store::detail
