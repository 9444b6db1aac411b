// Column codecs for LDS v3+: the optional compressed flow representation
// (`snapshot save --compress`).
//
// Layouts (every payload begins with a u64 raw/decoded byte size, so tools
// report compression ratios without decoding):
//
//   kColTimestamps  raw | u64 count | zigzag-varint deltas of start_offset_s
//                   (small within a device's sorted run; the sign absorbs
//                   the reset at device boundaries)
//   kColDomains     raw | u64 count | u32 dict_size | dict entries (uvarint
//                   DomainIds, first-appearance order) | uvarint dict refs
//   kColRest        raw | u64 count | duration f32[] | uvarint device deltas
//                   (non-decreasing in (device, start) order) | server_ip u32[] |
//                   server_port u16[] | proto u8[] | uvarint bytes_up |
//                   uvarint bytes_down
//
// The three sections are encoded and decoded together, in two passes over
// the flows each way:
//
//   EncodeColumns  pass 1 sizes every varint run and builds the domain
//                  dictionary as a dense table indexed by DomainId; pass 2
//                  writes each sub-column through its own cursor into
//                  section buffers of exactly their final size.
//   DecodeColumns  reads the three count prefixes and the dictionary, then
//                  finds where col-rest's device-delta and bytes_up runs end
//                  by counting varint terminator bytes (high bit clear): a
//                  run of n varints ends at its n-th terminator. With every
//                  sub-column located, one loop fills each flow once, each
//                  field read from the bounds-checked detail::Decoder of its
//                  section or sub-column.
//
// The decoder accepts exactly the payloads that reading the sections front
// to back would accept, and decodes them to the same flows. It cross-checks
// each count prefix against the flows it decodes into, so a
// corrupt-but-CRC-valid payload throws store::Error naming its section — it
// never silently misreads. Those flows are sized by the meta flow count,
// which the reader bounds by each column's fewest bytes per flow (kSections'
// flow_bytes) when it opens the file, so no count asks for memory the
// payload cannot fill, and the decoder writes straight into that one array,
// so no per-column copy of the flows exists.
// tests/store/codec_test.cc round-trips these on random inputs, corrupts
// the col-rest run boundaries and byte-sweeps a compressed snapshot.
#pragma once

#include <cstdint>
#include <span>

#include "core/dataset.h"
#include "store/codec.h"

namespace lockdown::store::detail {

/// The bodies of the three flow-column sections.
struct EncodedColumns {
  Encoder timestamps;  ///< kColTimestamps
  Encoder domains;     ///< kColDomains
  Encoder rest;        ///< kColRest
};

/// Encodes flows held in (device, start) order.
[[nodiscard]] EncodedColumns EncodeColumns(std::span<const core::Flow> flows);

/// Checks that each section holds exactly flows.size() flows and writes
/// every field of every flow.
void DecodeColumns(std::span<const std::byte> timestamps,
                   std::span<const std::byte> domains,
                   std::span<const std::byte> rest, std::span<core::Flow> flows);

/// Reads the leading u64 raw-size field of a coded payload (0 when the
/// payload is too short even for that).
[[nodiscard]] std::uint64_t PeekRawSize(std::span<const std::byte> payload) noexcept;

}  // namespace lockdown::store::detail
