#include "dns/mapper.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "util/hash.h"

namespace lockdown::dns {

IpToDomainMapper::IpToDomainMapper(std::span<const Resolution> log) {
  std::unordered_map<std::string, std::uint32_t, util::StringHash, std::equal_to<>> ids;
  for (const Resolution& r : log) {
    auto it = ids.find(std::string_view(r.qname));
    if (it == ids.end()) {
      it = ids.emplace(r.qname, static_cast<std::uint32_t>(names_.size())).first;
      names_.push_back(r.qname);
    }
    auto& entries = index_[r.answer.value()];
    // Drop consecutive duplicates for the same name to keep the index small;
    // campus resolvers re-resolve popular names every TTL.
    if (!entries.empty() && entries.back().name == it->second) {
      continue;
    }
    entries.push_back(Entry{r.ts, it->second});
  }
  for (auto& [ip, entries] : index_) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
  }
}

std::uint32_t IpToDomainMapper::LookupId(net::Ipv4Address ip,
                                         util::Timestamp ts) const noexcept {
  const auto it = index_.find(ip.value());
  if (it == index_.end()) return kNoName;
  const std::vector<Entry>& entries = it->second;
  auto pos = std::upper_bound(
      entries.begin(), entries.end(), ts,
      [](util::Timestamp t, const Entry& e) { return t < e.ts; });
  if (pos == entries.begin()) return kNoName;
  return std::prev(pos)->name;
}

std::optional<std::string_view> IpToDomainMapper::Lookup(
    net::Ipv4Address ip, util::Timestamp ts) const noexcept {
  const std::uint32_t id = LookupId(ip, ts);
  if (id == kNoName) return std::nullopt;
  return std::string_view(names_[id]);
}

}  // namespace lockdown::dns
