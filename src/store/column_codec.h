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
// Every decoder is bounds-checked through detail::Decoder and cross-checks
// its count prefix against the flows it decodes into, so a
// corrupt-but-CRC-valid payload throws store::Error — it never silently
// misreads. Those flows are sized by the meta flow count, which the reader
// bounds by each column's fewest bytes per flow (kSections' flow_bytes)
// when it opens the file, so no count asks for memory the payload cannot
// fill; each decoder writes its fields straight into that one array, so no
// per-column copy of the flows exists.
// tests/store/codec_test.cc round-trips these on random inputs and
// byte-sweeps a compressed snapshot.
#pragma once

#include <cstdint>
#include <span>

#include "core/dataset.h"
#include "store/codec.h"

namespace lockdown::store::detail {

[[nodiscard]] Encoder EncodeTimestampColumn(std::span<const core::Flow> flows);
[[nodiscard]] Encoder EncodeDomainColumn(std::span<const core::Flow> flows);
/// Reserves its exact size up front, so the encode never grows its buffer.
[[nodiscard]] Encoder EncodeRestColumn(std::span<const core::Flow> flows);

/// Reads the leading u64 raw-size field of a coded payload (0 when the
/// payload is too short even for that).
[[nodiscard]] std::uint64_t PeekRawSize(std::span<const std::byte> payload) noexcept;

/// Each decoder checks that its column holds exactly flows.size() flows and
/// writes its fields of every flow: start_offset_s; domain; and the rest
/// (duration, device, server, port, proto, byte counts).
void DecodeTimestampColumn(std::span<const std::byte> payload,
                           std::span<core::Flow> flows);
void DecodeDomainColumn(std::span<const std::byte> payload,
                        std::span<core::Flow> flows);
void DecodeRestColumn(std::span<const std::byte> payload,
                      std::span<core::Flow> flows);

}  // namespace lockdown::store::detail
