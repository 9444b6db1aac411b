#include "flow/conn_log.h"

#include <charconv>
#include <cmath>
#include <ostream>

#include "util/csv.h"
#include "util/strings.h"

namespace lockdown::flow {

namespace {

template <typename T>
bool ParseNum(std::string_view s, T& out) {
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out);
  return res.ec == std::errc() && res.ptr == end;
}

// Exact powers of ten: a decimal with at most 15 significant digits is an
// exact double m, and m / 10^k rounds once, as from_chars does.
constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

// One left-to-right pass over a row of the common shape. Each method
// consumes one field or separator; any byte outside the shape makes it
// return false, and the row goes to the general parser.
class CommonRow {
 public:
  explicit CommonRow(std::string_view line) noexcept
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// 1 to `max_digits` decimal digits (at most 18, so no overflow).
  bool Digits(std::uint64_t& out, int max_digits) noexcept {
    const char* const first = p_;
    std::uint64_t v = 0;
    while (p_ != end_ && static_cast<unsigned>(*p_ - '0') < 10 && p_ - first < max_digits) {
      v = v * 10 + static_cast<unsigned>(*p_ - '0');
      ++p_;
    }
    out = v;
    return p_ != first && (p_ == end_ || static_cast<unsigned>(*p_ - '0') >= 10);
  }
  /// Digits, optionally followed by '.' and more digits, 15 in all.
  bool Decimal(double& out) noexcept {
    const char* const first = p_;
    std::uint64_t m = 0;
    if (!Digits(m, 15)) return false;
    if (p_ == end_ || *p_ != '.') {
      out = static_cast<double>(m);
      return true;
    }
    ++p_;
    const char* const frac = p_;
    std::uint64_t f = 0;
    if (!Digits(f, 15)) return false;
    const auto k = p_ - frac;
    if ((p_ - first) - 1 > 15) return false;
    out = static_cast<double>(m * static_cast<std::uint64_t>(kPow10[k]) + f) / kPow10[k];
    return true;
  }
  /// Four dot-separated octets of 1 to 3 digits, each at most 255.
  bool Quad(net::Ipv4Address& out) noexcept {
    std::uint32_t addr = 0;
    for (int i = 0; i < 4; ++i) {
      std::uint64_t octet = 0;
      if ((i != 0 && !Skip('.')) || !Digits(octet, 3) || octet > 255) return false;
      addr = (addr << 8) | static_cast<std::uint32_t>(octet);
    }
    out = net::Ipv4Address(addr);
    return true;
  }
  bool Proto(net::Protocol& out) noexcept {
    if (end_ - p_ < 3) return false;
    const std::string_view word(p_, 3);
    if (word == "tcp") {
      out = net::Protocol::kTcp;
    } else if (word == "udp") {
      out = net::Protocol::kUdp;
    } else {
      return false;
    }
    p_ += 3;
    return true;
  }
  bool Tab() noexcept { return Skip('\t'); }
  [[nodiscard]] bool AtEnd() const noexcept { return p_ == end_; }

 private:
  bool Skip(char c) noexcept {
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  const char* p_;
  const char* end_;
};

// The common shape. It accepts only rows the general parser accepts, with
// the same values.
bool ParseCommonRow(std::string_view line, FlowRecord& r) noexcept {
  CommonRow row(line);
  std::uint64_t start = 0;
  std::uint64_t port = 0;
  if (!row.Digits(start, 18) || !row.Tab() || !row.Decimal(r.duration_s) ||
      !row.Tab() || !row.Quad(r.client_ip) || !row.Tab() || !row.Quad(r.server_ip) ||
      !row.Tab() || !row.Digits(port, 5) || port > 65535 || !row.Tab() ||
      !row.Proto(r.proto) || !row.Tab() || !row.Digits(r.bytes_up, 18) || !row.Tab() ||
      !row.Digits(r.bytes_down, 18) || !row.AtEnd()) {
    return false;
  }
  r.start = static_cast<util::Timestamp>(start);
  r.server_port = static_cast<net::Port>(port);
  return true;
}

}  // namespace

std::optional<ingest::ErrorClass> ConnLogFormat::ParseRow(std::string_view line,
                                                          FlowRecord& r) {
  if (ParseCommonRow(line, r)) return std::nullopt;
  return detail::ParseConnRowGeneral(line, r);
}

/// The acceptance set is the historical ReadConnLog's minus non-finite and
/// negative durations (kBadValue): strtod accepts "nan", "inf" and "-1", and
/// the figures cast the duration to an integer timestamp, which is undefined
/// for NaN/inf.
std::optional<ingest::ErrorClass> detail::ParseConnRowGeneral(std::string_view line,
                                                              FlowRecord& r) {
  std::string_view fields[8];
  if (!util::SplitExact(util::Trim(line), '\t', fields)) {
    return ingest::ErrorClass::kFieldCount;
  }
  if (!ParseNum(fields[0], r.start)) return ingest::ErrorClass::kBadTimestamp;
  if (!util::ParseDouble(fields[1], r.duration_s)) {
    return ingest::ErrorClass::kBadNumber;
  }
  if (!std::isfinite(r.duration_s) || r.duration_s < 0.0) {
    return ingest::ErrorClass::kBadValue;
  }
  const auto client = net::Ipv4Address::Parse(fields[2]);
  if (!client) return ingest::ErrorClass::kBadIp;
  const auto server = net::Ipv4Address::Parse(fields[3]);
  if (!server) return ingest::ErrorClass::kBadIp;
  unsigned port = 0;
  if (!ParseNum(fields[4], port) || port > 65535) {
    return ingest::ErrorClass::kBadNumber;
  }
  if (fields[5] == "tcp") {
    r.proto = net::Protocol::kTcp;
  } else if (fields[5] == "udp") {
    r.proto = net::Protocol::kUdp;
  } else {
    return ingest::ErrorClass::kBadValue;
  }
  if (!ParseNum(fields[6], r.bytes_up)) return ingest::ErrorClass::kBadNumber;
  if (!ParseNum(fields[7], r.bytes_down)) return ingest::ErrorClass::kBadNumber;
  r.client_ip = *client;
  r.server_ip = *server;
  r.server_port = static_cast<net::Port>(port);
  return std::nullopt;
}

void WriteConnLog(std::ostream& out, const std::vector<FlowRecord>& records) {
  out << ConnLogFormat::kHeader << '\n';
  for (const FlowRecord& r : records) {
    out << r.start << '\t' << r.duration_s << '\t' << r.client_ip.ToString()
        << '\t' << r.server_ip.ToString() << '\t' << r.server_port << '\t'
        << net::ToString(r.proto) << '\t' << r.bytes_up << '\t' << r.bytes_down
        << '\n';
  }
}

std::optional<std::vector<FlowRecord>> ReadConnLog(
    std::string_view text, const ingest::IngestOptions& options,
    ingest::IngestReport& report) {
  return ingest::ReadLog<ConnLogFormat>(text, options, report);
}

std::optional<std::vector<FlowRecord>> ReadConnLog(std::string_view text) {
  ingest::IngestReport report;
  return ReadConnLog(text, ingest::IngestOptions{}, report);
}

}  // namespace lockdown::flow
