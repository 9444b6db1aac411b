// Transport-layer endpoint types: protocol, port, five-tuple. The flow
// assembler keys its connection table on FiveTuple.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "net/ipv4.h"

namespace lockdown::net {

/// Transport protocol of a connection.
enum class Protocol : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

[[nodiscard]] constexpr const char* ToString(Protocol p) noexcept {
  return p == Protocol::kTcp ? "tcp" : "udp";
}

using Port = std::uint16_t;

/// Classic connection 5-tuple (source/destination address and port plus
/// protocol).
struct FiveTuple {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  Port src_port = 0;
  Port dst_port = 0;
  Protocol proto = Protocol::kTcp;

  friend constexpr auto operator<=>(const FiveTuple&, const FiveTuple&) noexcept = default;

  /// "10.1.2.3:4242 -> 8.8.8.8:443/tcp".
  [[nodiscard]] std::string ToString() const {
    return src_ip.ToString() + ":" + std::to_string(src_port) + " -> " +
           dst_ip.ToString() + ":" + std::to_string(dst_port) + "/" +
           lockdown::net::ToString(proto);
  }
};

/// Hash functor for the flow assembler's connection table.
struct FiveTupleHash {
  [[nodiscard]] std::size_t operator()(const FiveTuple& t) const noexcept {
    // Mix fields with splitmix-style constants; the final xor-shift-multiply
    // makes the low bits, which index the linear-probed flow table, depend
    // on every field.
    std::uint64_t h = t.src_ip.value();
    h = h * 0x9E3779B97F4A7C15ULL + t.dst_ip.value();
    h = h * 0x9E3779B97F4A7C15ULL + ((std::uint64_t{t.src_port} << 24) |
                                     (std::uint64_t{t.dst_port} << 8) |
                                     static_cast<std::uint64_t>(t.proto));
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace lockdown::net
