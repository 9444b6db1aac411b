// Pins the simulated capture byte for byte: every flow record the tap yields,
// the tap-exclusion count, and the generator's DHCP, DNS and UA logs.
//
// The figure digest only sees what survives processing; this hash sees the
// raw capture, so a change to the simulator, the tap-exclusion lookup or the
// flow assembler that reorders or alters a single record fails here even
// when every figure stays the same. Fields are folded one by one in a fixed
// little-endian layout, never as struct bytes, so padding cannot leak in.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>

#include "core/config.h"
#include "core/pipeline.h"
#include "sim/generator.h"

namespace lockdown::core {
namespace {

class Fnv1a {
 public:
  void Byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

TEST(CapturePin, Seed2020Students60IsByteIdentical) {
  const StudyConfig config = StudyConfig::Small(60, 2020);
  sim::TrafficGenerator generator(config.generator);
  const CapturedFlows captured =
      CaptureFlows(generator, world::ServiceCatalog::Default());

  Fnv1a h;
  h.U64(captured.flows.size());
  for (const flow::FlowRecord& f : captured.flows) {
    h.I64(f.start);
    h.F64(f.duration_s);
    h.U64(f.client_ip.value());
    h.U64(f.server_ip.value());
    h.U64(f.server_port);
    h.U64(static_cast<std::uint64_t>(f.proto));
    h.U64(f.bytes_up);
    h.U64(f.bytes_down);
  }
  h.U64(captured.tap_excluded);

  h.U64(generator.dhcp_log().size());
  for (const dhcp::Lease& l : generator.dhcp_log()) {
    h.U64(l.mac.value());
    h.U64(l.ip.value());
    h.I64(l.start);
    h.I64(l.end);
  }
  h.U64(generator.dns_log().size());
  for (const dns::Resolution& r : generator.dns_log()) {
    h.I64(r.ts);
    h.U64(r.client.value());
    h.Str(r.qname);
    h.U64(r.answer.value());
    h.I64(r.ttl);
  }
  h.U64(generator.ua_sightings().size());
  for (const sim::UaSighting& ua : generator.ua_sightings()) {
    h.I64(ua.ts);
    h.U64(ua.client_ip.value());
    h.Str(ua.user_agent);
  }

  EXPECT_EQ(captured.flows.size(), 263742u);
  EXPECT_EQ(captured.tap_excluded, 8524u);
  EXPECT_EQ(h.value(), 0xb0bb81c5f062c412ULL);
}

}  // namespace
}  // namespace lockdown::core
