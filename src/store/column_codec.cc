#include "store/column_codec.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "obs/obs.h"

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
/// col-rest's fixed-width bytes per flow: duration, server_ip, port, proto.
constexpr std::size_t kRestFixedBytes = 4 + 4 + 2 + 1;

[[noreturn]] void Corrupt(const char* section, const std::string& what) {
  throw Error(std::string(section) + " section: " + what);
}

/// A write position in a section buffer sized exactly.
struct Cursor {
  std::byte* at;

  /// A cursor over the next `bytes` bytes, which this one skips.
  Cursor Take(std::size_t bytes) noexcept {
    const Cursor sub{at};
    at += bytes;
    return sub;
  }
  void Le(std::uint64_t v, int width) noexcept { at = PutLe(at, v, width); }
  void Uvarint(std::uint64_t v) noexcept { at = PutUvarint(at, v); }
};

/// Writes a column's raw-size and count prefix into `enc`, reserved to its
/// exact final size, and returns the cursor for the `body` bytes after it.
Cursor StartColumn(Encoder& enc, const ColumnLayout& column, std::size_t count,
                   std::size_t body) {
  enc.Reserve(16 + body);
  enc.U64(count * column.raw_bytes);
  enc.U64(count);
  return {enc.Append(body).data()};
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

/// Reads col-domains' dictionary, which `count` refs index.
std::vector<core::DomainId> ReadDictionary(Decoder& dec, std::size_t count) {
  // Each entry is a varint of at least one byte.
  const BoundedCount dict_size = dec.Count(1, "dictionary entry");
  if (count != 0 && dict_size.value() == 0) {
    Corrupt(kDomains.section, "empty dictionary with nonzero flow count");
  }
  if (dict_size.value() > count) {
    Corrupt(kDomains.section, "dictionary larger than the flow count");
  }
  std::vector<core::DomainId> dict(dict_size.value());
  for (core::DomainId& entry : dict) {
    const std::uint64_t id = dec.Uvarint();
    if (id > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kDomains.section, "dictionary entry out of u32 range");
    }
    entry = static_cast<core::DomainId>(id);
  }
  return dict;
}

/// Length of the run of `count` varints at the start of `bytes`: the offset
/// just past its count-th terminator byte. While more than 8 terminators are
/// wanted, every terminator in the next 8-byte word counts, so it counts a
/// word at a time; it throws store::Error when `bytes` hold too few.
std::size_t RunLength(std::span<const std::byte> bytes, std::size_t count,
                      const char* section) {
  constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;
  std::size_t pos = 0;
  while (count > 8 && bytes.size() - pos >= 8) {
    const std::uint64_t word = GetLe(bytes.data() + pos, 8);
    count -= static_cast<std::size_t>(std::popcount(~word & kHighBits));
    pos += 8;
  }
  for (; count > 0; ++pos) {
    if (pos == bytes.size()) {
      throw Error(std::string("truncated ") + section + " section");
    }
    if ((static_cast<std::uint8_t>(bytes[pos]) & 0x80) == 0) --count;
  }
  return pos;
}

/// A sub-column of `bytes` bytes taken from col-rest's next unread bytes.
Decoder SubColumn(Decoder& rest, std::size_t bytes) {
  return Decoder(rest.Bytes(bytes), kRest.section);
}

/// A varint run of `count` entries taken from col-rest's next unread bytes.
Decoder VarintRun(Decoder& rest, std::size_t count) {
  return SubColumn(rest, RunLength(rest.unread(), count, kRest.section));
}

}  // namespace

EncodedColumns EncodeColumns(std::span<const core::Flow> flows) {
  OBS_SPAN("store/encode_columns");
  const std::size_t n = flows.size();

  // Pass 1: the length of every varint run and the first-appearance domain
  // dictionary. `dict_slot` maps a DomainId to its dictionary index + 1 (0:
  // not seen yet); campus traffic concentrates on a few thousand domains, so
  // refs are short varints and the table is small.
  std::vector<std::uint32_t> dict_slot;
  std::vector<core::DomainId> dict;
  std::size_t ts_bytes = 0;
  std::size_t dict_bytes = 0;
  std::size_t ref_bytes = 0;
  std::size_t device_bytes = 0;
  std::size_t up_bytes = 0;
  std::size_t down_bytes = 0;
  std::int64_t prev_ts = 0;
  std::uint64_t prev_device = 0;
  for (const core::Flow& f : flows) {
    const auto ts = static_cast<std::int64_t>(f.start_offset_s);
    ts_bytes += UvarintSize(Zigzag(ts - prev_ts));
    prev_ts = ts;
    if (f.domain >= dict_slot.size()) {
      dict_slot.resize(std::max(std::size_t{f.domain} + 1, 2 * dict_slot.size()));
    }
    std::uint32_t& slot = dict_slot[f.domain];
    if (slot == 0) {
      dict.push_back(f.domain);
      slot = static_cast<std::uint32_t>(dict.size());
      dict_bytes += UvarintSize(f.domain);
    }
    ref_bytes += UvarintSize(slot - 1);
    // Non-decreasing in (device, start) order, so plain (unsigned) deltas.
    device_bytes += UvarintSize(f.device - prev_device);
    prev_device = f.device;
    up_bytes += UvarintSize(f.bytes_up);
    down_bytes += UvarintSize(f.bytes_down);
  }

  // Pass 2: every sub-column through its own cursor.
  EncodedColumns out;
  Cursor ts_out = StartColumn(out.timestamps, kTimestamps, n, ts_bytes);
  Cursor ref_out =
      StartColumn(out.domains, kDomains, n, 4 + dict_bytes + ref_bytes);
  ref_out.Le(dict.size(), 4);
  for (const core::DomainId id : dict) ref_out.Uvarint(id);
  // col-rest's sub-columns, in file order; bytes_down is what remains.
  Cursor down_out = StartColumn(
      out.rest, kRest, n, n * kRestFixedBytes + device_bytes + up_bytes + down_bytes);
  Cursor duration_out = down_out.Take(n * 4);
  Cursor device_out = down_out.Take(device_bytes);
  Cursor ip_out = down_out.Take(n * 4);
  Cursor port_out = down_out.Take(n * 2);
  Cursor proto_out = down_out.Take(n);
  Cursor up_out = down_out.Take(up_bytes);
  prev_ts = 0;
  prev_device = 0;
  for (const core::Flow& f : flows) {
    const auto ts = static_cast<std::int64_t>(f.start_offset_s);
    ts_out.Uvarint(Zigzag(ts - prev_ts));
    prev_ts = ts;
    ref_out.Uvarint(dict_slot[f.domain] - 1);
    duration_out.Le(std::bit_cast<std::uint32_t>(f.duration_s), 4);
    device_out.Uvarint(f.device - prev_device);
    prev_device = f.device;
    ip_out.Le(f.server_ip.value(), 4);
    port_out.Le(f.server_port, 2);
    proto_out.Le(f.proto, 1);
    up_out.Uvarint(f.bytes_up);
    down_out.Uvarint(f.bytes_down);
  }
  return out;
}

void DecodeColumns(std::span<const std::byte> timestamps,
                   std::span<const std::byte> domains,
                   std::span<const std::byte> rest, std::span<core::Flow> flows) {
  OBS_SPAN("store/decode_columns");
  const std::size_t n = flows.size();
  Decoder ts_in(timestamps, kTimestamps.section);
  ReadCount(ts_in, kTimestamps, n);
  Decoder ref_in(domains, kDomains.section);
  ReadCount(ref_in, kDomains, n);
  const std::vector<core::DomainId> dict = ReadDictionary(ref_in, n);
  // col-rest's sub-columns, in file order; bytes_down is what remains. The
  // counts fit: the reader bounded n by col-rest's bytes.
  Decoder down_in(rest, kRest.section);
  ReadCount(down_in, kRest, n);
  Decoder duration_in = SubColumn(down_in, n * 4);
  Decoder device_in = VarintRun(down_in, n);
  Decoder ip_in = SubColumn(down_in, n * 4);
  Decoder port_in = SubColumn(down_in, n * 2);
  Decoder proto_in = SubColumn(down_in, n);
  Decoder up_in = VarintRun(down_in, n);

  std::uint64_t ts = 0;
  std::uint64_t device = 0;
  for (core::Flow& f : flows) {
    // Unsigned wrap: a delta that takes the start below 0 lands above the
    // u32 range, like one that takes it past the top.
    ts += static_cast<std::uint64_t>(ts_in.Svarint());
    if (ts > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kTimestamps.section, "timestamp out of u32 range");
    }
    f.start_offset_s = static_cast<std::uint32_t>(ts);
    const std::uint64_t ref = ref_in.Uvarint();
    if (ref >= dict.size()) Corrupt(kDomains.section, "dictionary ref out of range");
    f.domain = dict[ref];
    f.duration_s = duration_in.F32();
    device += device_in.Uvarint();
    if (device > std::numeric_limits<std::uint32_t>::max()) {
      Corrupt(kRest.section, "device index out of u32 range");
    }
    f.device = static_cast<std::uint32_t>(device);
    f.server_ip = net::Ipv4Address(ip_in.U32());
    f.server_port = port_in.U16();
    f.proto = proto_in.U8();
    f.bytes_up = up_in.Uvarint();
    f.bytes_down = down_in.Uvarint();
  }
  for (const Decoder* in : {&ts_in, &ref_in, &duration_in, &device_in, &ip_in,
                            &port_in, &proto_in, &up_in, &down_in}) {
    in->ExpectDone();
  }
}

std::uint64_t PeekRawSize(std::span<const std::byte> payload) noexcept {
  return payload.size() < 8 ? 0 : Decoder(payload, "coded").U64();
}

}  // namespace lockdown::store::detail
