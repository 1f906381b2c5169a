#include "workload/client_mix.h"

#include <algorithm>
#include <cmath>

#include "crypto/rng.h"

namespace lookaside::workload {

namespace {

/// Probability a visit also asks AAAA for the same name (paper Table 4's
/// per-type mix, reduced to the serve-relevant part).
constexpr double kAaaaProbability = 0.25;

/// Zipf(1)-like rank draw via the continuous inverse CDF: with u uniform in
/// [0,1), floor(support^u) has mass ~ 1/rank over [1, support]. Integer
/// clamping keeps the draw in range for every u.
std::uint64_t zipf_rank(crypto::SplitMix64& rng, std::uint64_t support) {
  if (support <= 1) return 1;
  const double u = rng.next_double();
  const auto rank = static_cast<std::uint64_t>(
      std::pow(static_cast<double>(support), u));
  return std::clamp<std::uint64_t>(rank, 1, support);
}

}  // namespace

std::uint32_t ClientMix::first_attacker() const {
  const auto attackers = static_cast<std::uint32_t>(
      static_cast<double>(options_.clients) *
      std::clamp(options_.attack_fraction, 0.0, 1.0));
  return options_.clients - attackers;
}

std::vector<ClientQuery> ClientMix::generate(const Universe& universe) const {
  const std::uint64_t support =
      std::min<std::uint64_t>(std::max<std::uint64_t>(options_.zipf_support, 1),
                              universe.size());
  std::vector<ClientQuery> schedule;
  schedule.reserve(static_cast<std::size_t>(options_.clients) *
                   options_.queries_per_client * 2);

  const std::uint32_t attack_start = first_attacker();
  for (std::uint32_t client = 0; client < options_.clients; ++client) {
    crypto::SplitMix64 rng(crypto::derive_seed(options_.seed, client));
    const bool attacker = client >= attack_start;
    std::uint64_t now_us = 0;
    std::uint32_t seq = 0;
    for (std::uint32_t i = 0; i < options_.queries_per_client; ++i) {
      // Integer gaps only: float arithmetic in the timeline would make the
      // schedule (and hence every downstream artifact) platform-sensitive.
      now_us += 1 + rng.next_below(2 * std::max<std::uint64_t>(
                                           options_.mean_gap_us, 1));
      // Attackers cache-bust: a uniform draw over the whole universe almost
      // never repeats, so every query forces a fresh denial validation.
      const std::uint64_t rank = attacker
                                     ? 1 + rng.next_below(universe.size())
                                     : zipf_rank(rng, support);
      const dns::Name name = universe.domain_at(rank);
      schedule.push_back({now_us, client, seq++, name, dns::RRType::kA});
      if (rng.next_double() < kAaaaProbability) {
        // The AAAA rides 1us behind its A, like a dual-stack stub's pair.
        schedule.push_back({now_us + 1, client, seq++, name, dns::RRType::kAaaa});
      }
    }
  }

  std::sort(schedule.begin(), schedule.end(),
            [](const ClientQuery& a, const ClientQuery& b) {
              if (a.time_us != b.time_us) return a.time_us < b.time_us;
              if (a.client != b.client) return a.client < b.client;
              return a.seq < b.seq;
            });
  return schedule;
}

}  // namespace lookaside::workload
