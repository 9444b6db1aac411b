#include "dns/resolver.h"

namespace lockdown::dns {

Resolver::Resolver(AuthorityFn authority, ResolverConfig config, util::Pcg32 rng)
    : authority_(std::move(authority)), config_(config), rng_(rng) {}

std::optional<net::Ipv4Address> Resolver::Resolve(net::MacAddress client,
                                                  std::string_view qname,
                                                  util::Timestamp now) {
  const auto it = cache_.find(qname);
  if (it != cache_.end() && now >= it->second.created && now < it->second.expires) {
    ++hits_;
    return it->second.answer;
  }
  ++misses_;
  const std::vector<net::Ipv4Address> answers = authority_(qname);
  if (answers.empty()) return std::nullopt;
  const net::Ipv4Address answer =
      answers[rng_.NextBounded(static_cast<std::uint32_t>(answers.size()))];
  const CacheEntry entry{answer, now, now + config_.default_ttl};
  if (it != cache_.end()) {
    it->second = entry;
  } else {
    cache_.emplace(std::string(qname), entry);
  }
  if (config_.max_log_entries == 0 || log_.size() < config_.max_log_entries) {
    log_.push_back(
        Resolution{now, client, std::string(qname), answer, config_.default_ttl});
  }
  return answer;
}

}  // namespace lockdown::dns
