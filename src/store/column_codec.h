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
// its element count against the caller's expectation (the meta section) and
// against the fewest bytes per flow its column can take, before allocating,
// so a corrupt-but-CRC-valid payload throws store::Error — it never silently
// misreads or asks for memory the payload cannot fill.
// tests/store/codec_test.cc round-trips these on random inputs and
// byte-sweeps a compressed snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "store/codec.h"

namespace lockdown::store::detail {

[[nodiscard]] Encoder EncodeTimestampColumn(std::span<const core::Flow> flows);
[[nodiscard]] Encoder EncodeDomainColumn(std::span<const core::Flow> flows);
[[nodiscard]] Encoder EncodeRestColumn(std::span<const core::Flow> flows);

/// Reads the leading u64 raw-size field of a coded payload (0 when the
/// payload is too short even for that).
[[nodiscard]] std::uint64_t PeekRawSize(std::span<const std::byte> payload) noexcept;

[[nodiscard]] std::vector<std::uint32_t> DecodeTimestampColumn(
    std::span<const std::byte> payload, std::uint64_t expected_count);
[[nodiscard]] std::vector<std::uint32_t> DecodeDomainColumn(
    std::span<const std::byte> payload, std::uint64_t expected_count);

/// The non-timestamp, non-domain flow fields.
struct RestColumns {
  std::vector<float> duration;
  std::vector<std::uint32_t> device;
  std::vector<std::uint32_t> server_ip;
  std::vector<std::uint16_t> server_port;
  std::vector<std::uint8_t> proto;
  std::vector<std::uint64_t> bytes_up;
  std::vector<std::uint64_t> bytes_down;
};
[[nodiscard]] RestColumns DecodeRestColumn(std::span<const std::byte> payload,
                                           std::uint64_t expected_count);

}  // namespace lockdown::store::detail
