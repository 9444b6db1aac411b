#include "store/column_codec.h"

#include <cstddef>
#include <limits>
#include <string>
#include <unordered_map>

#include "store/format.h"

namespace lockdown::store::detail {

namespace {

/// Decoded sizes the codecs advertise in their raw-size prefix: what the
/// equivalent raw section would occupy, in per-flow field bytes.
constexpr std::uint64_t kTimestampRawBytes = 4;
constexpr std::uint64_t kDomainRawBytes = 4;
constexpr std::uint64_t kRestRawBytes = 31;  // 40B flow minus start/domain/pad

/// The fewest payload bytes one flow can take in each column: a one-byte
/// varint delta or ref; f32 duration, one-byte device delta, u32 server_ip,
/// u16 port, u8 proto and two one-byte byte counts.
constexpr std::uint64_t kTimestampMinBytes = 1;
constexpr std::uint64_t kDomainMinBytes = 1;
constexpr std::uint64_t kRestMinBytes = 14;

[[noreturn]] void Corrupt(const char* section, const std::string& what) {
  throw Error(std::string(section) + " section: " + what);
}

/// Reads a column's raw-size and count prefix and checks the count against
/// the meta section's and against what the rest of the payload can hold,
/// before any per-flow allocation. Divides rather than multiplies, so a
/// hostile count cannot wrap into a match.
std::uint64_t ReadCount(Decoder& dec, const char* section,
                        std::uint64_t expected_count, std::uint64_t raw_bytes,
                        std::uint64_t min_bytes) {
  const std::uint64_t raw = dec.U64();
  const std::uint64_t count = dec.U64();
  if (count != expected_count) Corrupt(section, "count disagrees with meta section");
  if (count > dec.remaining() / min_bytes) {
    Corrupt(section, "count exceeds what the payload can hold");
  }
  if (raw % raw_bytes != 0 || raw / raw_bytes != count) {
    Corrupt(section, "raw size disagrees with count");
  }
  return count;
}

}  // namespace

Encoder EncodeTimestampColumn(std::span<const core::Flow> flows) {
  Encoder enc;
  enc.Reserve(16 + flows.size() * 2);
  enc.U64(flows.size() * kTimestampRawBytes);
  enc.U64(flows.size());
  std::int64_t prev = 0;
  for (const core::Flow& f : flows) {
    const auto ts = static_cast<std::int64_t>(f.start_offset_s);
    enc.Svarint(ts - prev);
    prev = ts;
  }
  return enc;
}

std::vector<std::uint32_t> DecodeTimestampColumn(
    std::span<const std::byte> payload, std::uint64_t expected_count) {
  Decoder dec(payload, "col-timestamps");
  const std::uint64_t count = ReadCount(dec, "col-timestamps", expected_count,
                                       kTimestampRawBytes, kTimestampMinBytes);
  std::vector<std::uint32_t> out(count);
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t ts = prev + dec.Svarint();
    if (ts < 0 || ts > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt("col-timestamps", "timestamp out of u32 range");
    }
    out[i] = static_cast<std::uint32_t>(ts);
    prev = ts;
  }
  dec.ExpectDone();
  return out;
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
  enc.U64(flows.size() * kDomainRawBytes);
  enc.U64(flows.size());
  enc.U32(static_cast<std::uint32_t>(dict.size()));
  for (const core::DomainId id : dict) enc.Uvarint(id);
  for (const std::uint32_t r : refs) enc.Uvarint(r);
  return enc;
}

std::vector<std::uint32_t> DecodeDomainColumn(
    std::span<const std::byte> payload, std::uint64_t expected_count) {
  Decoder dec(payload, "col-domains");
  const std::uint64_t count = ReadCount(dec, "col-domains", expected_count,
                                       kDomainRawBytes, kDomainMinBytes);
  const std::uint32_t dict_size = dec.U32();
  if (count > 0 && dict_size == 0) {
    Corrupt("col-domains", "empty dictionary with nonzero flow count");
  }
  if (dict_size > count) {
    Corrupt("col-domains", "dictionary larger than the flow count");
  }
  std::vector<std::uint32_t> dict(dict_size);
  for (std::uint32_t i = 0; i < dict_size; ++i) {
    const std::uint64_t id = dec.Uvarint();
    if (id > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt("col-domains", "dictionary entry out of u32 range");
    }
    dict[i] = static_cast<std::uint32_t>(id);
  }
  std::vector<std::uint32_t> out(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ref = dec.Uvarint();
    if (ref >= dict_size) Corrupt("col-domains", "dictionary ref out of range");
    out[i] = dict[ref];
  }
  dec.ExpectDone();
  return out;
}

Encoder EncodeRestColumn(std::span<const core::Flow> flows) {
  Encoder enc;
  enc.Reserve(16 + flows.size() * 16);
  enc.U64(flows.size() * kRestRawBytes);
  enc.U64(flows.size());
  for (const core::Flow& f : flows) enc.F32(f.duration_s);
  std::uint64_t prev_device = 0;
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

RestColumns DecodeRestColumn(std::span<const std::byte> payload,
                             std::uint64_t expected_count) {
  Decoder dec(payload, "col-rest");
  const std::uint64_t count = ReadCount(dec, "col-rest", expected_count,
                                       kRestRawBytes, kRestMinBytes);
  RestColumns out;
  out.duration.resize(count);
  out.device.resize(count);
  out.server_ip.resize(count);
  out.server_port.resize(count);
  out.proto.resize(count);
  out.bytes_up.resize(count);
  out.bytes_down.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) out.duration[i] = dec.F32();
  std::uint64_t device = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    device += dec.Uvarint();
    if (device > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt("col-rest", "device index out of u32 range");
    }
    out.device[i] = static_cast<std::uint32_t>(device);
  }
  for (std::uint64_t i = 0; i < count; ++i) out.server_ip[i] = dec.U32();
  for (std::uint64_t i = 0; i < count; ++i) out.server_port[i] = dec.U16();
  for (std::uint64_t i = 0; i < count; ++i) out.proto[i] = dec.U8();
  for (std::uint64_t i = 0; i < count; ++i) out.bytes_up[i] = dec.Uvarint();
  for (std::uint64_t i = 0; i < count; ++i) out.bytes_down[i] = dec.Uvarint();
  dec.ExpectDone();
  return out;
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
