// Cache lifecycle subsystem tests (DESIGN.md §4f): byte accounting across
// all five stores, the incremental amortized expiry sweep, second-chance
// eviction under a byte cap, and the end-to-end contract that a capped
// resolver holds cache.bytes under the cap while leaking more (the
// cache-pressure leakage study's mechanism).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "crypto/rng.h"
#include "resolver/cache.h"
#include "resolver/config.h"
#include "sim/clock.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace lookaside::resolver {
namespace {

// Legacy-shaped probe over ResolverCache::find_denial so the
// lifecycle assertions below keep their original vocabulary.
NegativeEntry find_negative(ResolverCache& cache, const dns::Name& name,
                            dns::RRType type) {
  const ProofResult proof =
      cache.find_denial(name, name, type, DenialSources::kNegative);
  if (!proof) return NegativeEntry::kNone;
  return proof.coverage == DenialKind::kNxDomain ? NegativeEntry::kNxDomain
                                                 : NegativeEntry::kNoData;
}

class CacheLifecycleTest : public ::testing::Test {
 protected:
  CacheLifecycleTest() : cache_(clock_) {}

  dns::RRset a_rrset(const std::string& name, std::uint32_t ttl,
                     std::uint32_t address = 1) {
    dns::RRset out(dns::Name::parse(name), dns::RRType::kA);
    out.add(dns::ResourceRecord::make(dns::Name::parse(name), ttl,
                                      dns::ARdata{address}));
    return out;
  }

  void store_nsec(const std::string& zone, const std::string& owner,
                  const std::string& next, std::uint32_t ttl) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse(next);
    nsec.types = {dns::RRType::kNs};
    cache_.store_nsec(dns::Name::parse(zone),
                      dns::ResourceRecord::make(dns::Name::parse(owner), ttl,
                                                dns::Rdata{nsec}));
  }

  /// Populates every store: `n` positives, negatives, NSEC entries, plus a
  /// SERVFAIL entry and a zone cut, all with TTL `ttl`.
  void populate(int n, std::uint32_t ttl) {
    for (int i = 0; i < n; ++i) {
      const std::string tag = std::to_string(i);
      cache_.store(a_rrset("p" + tag + ".example.com", ttl), false);
      cache_.store_negative(dns::Name::parse("n" + tag + ".example.com"),
                            dns::RRType::kA, ttl, /*nxdomain=*/true);
      store_nsec("dlv.isc.org", "d" + tag + ".com.dlv.isc.org",
                 "e" + tag + ".com.dlv.isc.org", ttl);
    }
    cache_.store_servfail(dns::Name::parse("sf.example.com"), dns::RRType::kA,
                          ttl);
    cache_.store_zone_cut(dns::Name::parse("example.com"), ttl);
  }

  /// Runs sweep ticks until a full rotation reclaims nothing.
  std::uint64_t sweep_to_fixpoint(std::size_t step = 64) {
    std::uint64_t total = 0;
    int idle_rounds = 0;
    while (idle_rounds < 16) {
      const std::size_t got = cache_.sweep_expired(step);
      total += got;
      idle_rounds = got == 0 ? idle_rounds + 1 : 0;
    }
    return total;
  }

  sim::SimClock clock_;
  ResolverCache cache_;
};

TEST_F(CacheLifecycleTest, BytesAccountAcrossAllStores) {
  EXPECT_EQ(cache_.bytes(), 0u);
  std::uint64_t last = 0;
  cache_.store(a_rrset("a.example.com", 300), true);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  cache_.store_negative(dns::Name::parse("b.example.com"), dns::RRType::kA,
                        300, true);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  cache_.store_servfail(dns::Name::parse("c.example.com"), dns::RRType::kA,
                        300);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "e.com.dlv.isc.org", 300);
  EXPECT_GT(cache_.bytes(), last);
  last = cache_.bytes();
  cache_.store_zone_cut(dns::Name::parse("example.com"), 300);
  EXPECT_GT(cache_.bytes(), last);
  EXPECT_EQ(cache_.peak_bytes(), cache_.bytes());
  cache_.clear();
  EXPECT_EQ(cache_.bytes(), 0u);
  EXPECT_EQ(cache_.peak_bytes(), 0u);
}

TEST_F(CacheLifecycleTest, OverwritesDoNotDoubleCharge) {
  cache_.store(a_rrset("a.example.com", 300), false);
  const std::uint64_t once = cache_.bytes();
  cache_.store(a_rrset("a.example.com", 300), false);
  EXPECT_EQ(cache_.bytes(), once);
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "e.com.dlv.isc.org", 300);
  const std::uint64_t with_nsec = cache_.bytes();
  store_nsec("dlv.isc.org", "d.com.dlv.isc.org", "e.com.dlv.isc.org", 300);
  EXPECT_EQ(cache_.bytes(), with_nsec);
  cache_.store_negative(dns::Name::parse("n.example.com"), dns::RRType::kA,
                        300, true);
  const std::uint64_t with_negative = cache_.bytes();
  cache_.store_negative(dns::Name::parse("n.example.com"), dns::RRType::kA,
                        300, false);
  EXPECT_EQ(cache_.bytes(), with_negative);
}

TEST_F(CacheLifecycleTest, SweepReclaimsExpiredEverywhere) {
  populate(20, /*ttl=*/30);
  const std::uint64_t populated = cache_.bytes();
  ASSERT_GT(populated, 0u);
  ASSERT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 20u);

  clock_.advance_seconds(31);
  const std::uint64_t swept = sweep_to_fixpoint();
  // 20 positives + 20 negatives + 20 NSEC + 1 SERVFAIL + 1 zone cut.
  EXPECT_EQ(swept, 62u);
  EXPECT_EQ(cache_.counters().value("cache.expired_swept"), 62u);
  EXPECT_EQ(cache_.bytes(), 0u);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 0u);
}

TEST_F(CacheLifecycleTest, SweepLeavesLiveEntriesAlone) {
  populate(10, /*ttl=*/30);
  populate(10, /*ttl=*/3600);  // overwrites the same names with long TTLs
  clock_.advance_seconds(31);
  sweep_to_fixpoint();
  // The long-TTL generation survived: probes still hit.
  EXPECT_NE(cache_.find(dns::Name::parse("p3.example.com"), dns::RRType::kA),
            nullptr);
  EXPECT_EQ(find_negative(cache_, dns::Name::parse("n3.example.com"),
                                 dns::RRType::kA),
            NegativeEntry::kNxDomain);
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 10u);
  EXPECT_GT(cache_.bytes(), 0u);
}

TEST_F(CacheLifecycleTest, SweepIsIncremental) {
  populate(50, /*ttl=*/30);
  clock_.advance_seconds(31);
  // A tiny budget cannot reclaim everything in one tick; repeated ticks
  // converge without any tick exceeding its slot budget.
  const std::size_t first = cache_.sweep_expired(4);
  EXPECT_LT(first, 50u);
  sweep_to_fixpoint(4);
  EXPECT_EQ(cache_.bytes(), 0u);
}

TEST_F(CacheLifecycleTest, TtlChurnSweepsAndShrinksNsec) {
  // The ISSUE's churn contract: rounds of stores + TTL expiry with
  // maintenance enabled reclaim expired generations (swept counter grows,
  // nsec_count shrinks after sweep) instead of accumulating forever.
  cache_.set_limits(CacheLimits{/*max_bytes=*/0});
  std::uint64_t peak_entries = 0;
  for (int round = 0; round < 4; ++round) {
    populate(30, /*ttl=*/300);
    peak_entries =
        std::max(peak_entries,
                 static_cast<std::uint64_t>(
                     cache_.nsec_count(dns::Name::parse("dlv.isc.org"))));
    clock_.advance_seconds(301);  // the whole generation expires
    const std::uint64_t before =
        cache_.nsec_count(dns::Name::parse("dlv.isc.org"));
    for (int tick = 0; tick < 200; ++tick) cache_.maintain();
    EXPECT_LT(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), before);
  }
  EXPECT_GT(cache_.counters().value("cache.expired_swept"), 0u);
  // After the final sweep rounds nothing lingers from older generations.
  EXPECT_EQ(cache_.nsec_count(dns::Name::parse("dlv.isc.org")), 0u);
}

TEST_F(CacheLifecycleTest, MaintainEnforcesByteCap) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/4096});
  populate(60, /*ttl=*/3600);  // nothing expired: pressure must evict
  ASSERT_GT(cache_.bytes(), 4096u);
  cache_.maintain();
  EXPECT_LE(cache_.bytes(), 4096u);
  EXPECT_GT(cache_.counters().value("cache.evicted"), 0u);
  // The per-store breakdown sums to the total.
  std::uint64_t breakdown = 0;
  for (const char* store :
       {"positive", "negative", "servfail", "nsec", "zone_cut"}) {
    breakdown +=
        cache_.counters().value(std::string("cache.evicted.") + store);
  }
  EXPECT_EQ(breakdown, cache_.counters().value("cache.evicted"));
}

TEST_F(CacheLifecycleTest, EvictionTerminatesWhenEverythingIsReferenced) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/2048});
  populate(40, /*ttl=*/3600);
  // Touch everything so every second-chance bit is set; maintain must
  // still reach the cap (first pass spares, second pass evicts).
  for (int i = 0; i < 40; ++i) {
    const std::string tag = std::to_string(i);
    (void)cache_.find(dns::Name::parse("p" + tag + ".example.com"),
                      dns::RRType::kA);
    (void)find_negative(cache_, dns::Name::parse("n" + tag + ".example.com"),
                               dns::RRType::kA);
  }
  cache_.maintain();
  EXPECT_LE(cache_.bytes(), 2048u);
}

TEST_F(CacheLifecycleTest, CapSmallerThanAnyEntryDoesNotSpin) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/1});
  populate(5, /*ttl=*/3600);
  cache_.maintain();  // guard must bound the loop even at an absurd cap
  EXPECT_EQ(cache_.bytes(), 0u);
}

TEST_F(CacheLifecycleTest, UnboundedCacheNeverEvicts) {
  cache_.set_limits(CacheLimits{/*max_bytes=*/0});
  populate(100, /*ttl=*/3600);
  for (int i = 0; i < 50; ++i) cache_.maintain();
  EXPECT_EQ(cache_.counters().value("cache.evicted"), 0u);
  EXPECT_NE(cache_.find(dns::Name::parse("p42.example.com"), dns::RRType::kA),
            nullptr);
}

TEST(CacheScheduleTest, SeededScheduleKeepsItsSweepAndEvictionSequence) {
  // The sweep and eviction schedule is an observable (DESIGN §4f): which
  // entries are reclaimed, and when, decides the churn series and the
  // eviction causes. This seeded schedule mixes TTLs across all five
  // stores, advances the clock, keeps adding names so tables grow in the
  // middle of a lap, and caps bytes low enough that eviction walks the NSEC
  // chain with the hand the sweep also moves. It pins a digest of the
  // (expired_swept, evicted, bytes) triple after every maintain(); the
  // expected values were recorded before slots carried due times.
  sim::SimClock clock;
  ResolverCache cache(clock);
  cache.set_limits(CacheLimits{/*max_bytes=*/12 * 1024});
  crypto::SplitMix64 rng(20261018);
  const dns::Name dlv_apex = dns::Name::parse("dlv.isc.org");
  const dns::Name com_apex = dns::Name::parse("com");
  std::uint64_t digest = 14695981039346656037ULL;
  auto mix = [&digest](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xFF;
      digest *= 1099511628211ULL;
    }
  };
  for (int step = 0; step < 6000; ++step) {
    // The name pool grows with the step, so every table keeps rehashing.
    const std::string tag = std::to_string(rng.next_below(40 + step / 8));
    const auto ttl = static_cast<std::uint32_t>(1 + rng.next_below(900));
    switch (rng.next_below(9)) {
      case 0:
      case 1: {
        dns::RRset rrset(dns::Name::parse("p" + tag + ".example.com"),
                         rng.next_below(2) == 0 ? dns::RRType::kA
                                                : dns::RRType::kAaaa);
        rrset.add(dns::ResourceRecord::make(
            rrset.name(), ttl,
            rrset.type() == dns::RRType::kA ? dns::Rdata{dns::ARdata{1}}
                                             : dns::Rdata{dns::AaaaRdata{}}));
        cache.store(rrset, rng.next_below(2) == 0);
        break;
      }
      case 2:
        cache.store_negative(dns::Name::parse("n" + tag + ".example.com"),
                             rng.next_below(2) == 0 ? dns::RRType::kA
                                                    : dns::RRType::kDs,
                             ttl, rng.next_below(2) == 0);
        break;
      case 3:
        cache.store_servfail(dns::Name::parse("s" + tag + ".example.com"),
                             dns::RRType::kA, ttl);
        break;
      case 4:
      case 5: {
        const bool dlv = rng.next_below(3) != 0;
        dns::NsecRdata nsec;
        nsec.next = dns::Name::parse("d" + tag + "x." +
                                     (dlv ? "com.dlv.isc.org" : "com"));
        nsec.types = {dns::RRType::kNs, dns::RRType::kRrsig,
                      dns::RRType::kNsec};
        cache.store_nsec(
            dlv ? dlv_apex : com_apex,
            dns::ResourceRecord::make(
                dns::Name::parse("d" + tag + "." +
                                 (dlv ? "com.dlv.isc.org" : "com")),
                ttl, dns::Rdata{nsec}));
        break;
      }
      case 6:
        cache.store_zone_cut(dns::Name::parse("z" + tag + ".com"), ttl);
        break;
      case 7: {
        // Probes set second-chance bits and purge expired slots on the way.
        (void)cache.find(dns::Name::parse("p" + tag + ".example.com"),
                         dns::RRType::kA);
        (void)cache.find_denial(
            dlv_apex, dns::Name::parse("d" + tag + "a.com.dlv.isc.org"),
            dns::RRType::kDlv);
        (void)cache.find_servfail(
            dns::Name::parse("s" + tag + ".example.com"), dns::RRType::kA);
        (void)cache.deepest_known_cut(dns::Name::parse("www.z" + tag + ".com"));
        break;
      }
      default:
        clock.advance_seconds(static_cast<double>(rng.next_below(40)));
        break;
    }
    cache.maintain();
    mix(cache.counters().value("cache.expired_swept"));
    mix(cache.counters().value("cache.evicted"));
    mix(cache.bytes());
  }
  EXPECT_EQ(cache.counters().value("cache.expired_swept"), 1361u);
  EXPECT_EQ(cache.counters().value("cache.evicted"), 2839u);
  EXPECT_EQ(cache.counters().value("cache.evicted.nsec"), 111u);
  EXPECT_EQ(cache.bytes(), 12247u);
  EXPECT_EQ(digest, 10225040935651725931ULL);
}

// -- End-to-end: capped resolver under the universe workload -----------------

TEST(CacheLifecycleEndToEnd, CappedResolverHoldsBytesUnderCapAndLeaksMore) {
  core::UniverseExperiment::Options base;
  base.universe_size = 4'000;
  base.resolver_config = ResolverConfig::bind_yum();

  // Unbounded control run.
  core::UniverseExperiment unbounded(base);
  const core::LeakageReport free_report = unbounded.run_topn(600);
  const std::uint64_t free_bytes = unbounded.resolver().cache().bytes();
  EXPECT_EQ(unbounded.resolver().cache().counters().value("cache.evicted"),
            0u);

  // Capped run at a fraction of the unbounded footprint.
  core::UniverseExperiment::Options capped_options = base;
  capped_options.resolver_config.max_cache_bytes = free_bytes / 8;
  core::UniverseExperiment capped(capped_options);
  const core::LeakageReport capped_report = capped.run_topn(600);
  const ResolverCache& cache = capped.resolver().cache();
  EXPECT_LE(cache.bytes(), capped_options.resolver_config.max_cache_bytes);
  EXPECT_GT(cache.counters().value("cache.evicted"), 0u);
  // Evicting aggressive-NSEC proofs re-opens the leakage channel: the
  // capped resolver can only do worse (more Case-2 queries), never better.
  EXPECT_GE(capped_report.case2_queries, free_report.case2_queries);
}

// -- Counter known answer ------------------------------------------------------

/// Answers every query with its own question; the scenario's direct
/// exchanges use it to ask types no resolver asks.
class EchoEndpoint : public sim::Endpoint {
 public:
  [[nodiscard]] std::string endpoint_id() const override { return "echo"; }
  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    dns::Message response = query;
    response.header.qr = true;
    return response;
  }
};

TEST(CounterKnownAnswer, FaultyCappedRunExportsItsRecordedCounters) {
  // One fixed run through every counted path of the network and the
  // cache: a seeded plan that fires each fault kind (loss, a response-leg
  // loss and a spike past the retransmission timer are both partial
  // timeouts, and every lost or truncated attempt is retried), a byte cap
  // that evicts from every section, TTLs that expire between passes, and
  // direct exchanges of an unknown type below 256 and one above. The
  // literals were recorded before the counters were typed fields. Every
  // name the two classes export appears, except query.<TYPE> for types
  // this run never asks: TXT, which the resolver asks only under the TXT
  // remedy, and the types it only reads in answers (SOA, CNAME, RRSIG,
  // NSEC, NSEC3).
  core::UniverseExperiment::Options options;
  options.universe_size = 2'000;
  options.resolver_config = ResolverConfig::bind_yum();
  options.resolver_config.max_cache_bytes = 48 * 1024;
  options.resolver_config.server_holddown_us = 0;
  core::UniverseExperiment experiment(options);
  sim::FaultPlan plan;
  plan.seed = 2028;
  const auto spec = sim::FaultSpec::parse(
      "* loss=0.04 rloss=0.03 spike=0.04:2s truncate=0.03 "
      "rcode=SERVFAIL:0.04 corrupt=0.03");
  ASSERT_TRUE(spec.has_value());
  plan.add(*spec);
  experiment.network().set_fault_plan(plan);

  const workload::Universe& universe = experiment.world().universe();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t rank = 1; rank <= 150; ++rank) {
      const dns::Name domain = universe.domain_at(rank);
      (void)experiment.stub().visit(domain);
      // A repeat inside the SERVFAIL TTL is answered from that cache.
      const Query query{domain, dns::RRType::kA};
      if (experiment.resolver().resolve(query).response.header.rcode ==
          dns::RCode::kServFail) {
        (void)experiment.resolver().resolve(query);
      }
    }
    experiment.clock().advance_seconds(3'000);  // most TTLs are 3,600 s
  }
  EchoEndpoint echo;
  for (const std::uint16_t type : {99, 99, 65'280}) {
    dns::Message query;
    query.questions.push_back(
        {dns::Name::parse("probe.test"), static_cast<dns::RRType>(type)});
    (void)experiment.network().exchange("stub", echo, query);
  }

  using Entries = std::vector<std::pair<std::string, std::uint64_t>>;
  const Entries network = experiment.network().counters().entries();
  const Entries cache = experiment.resolver().cache().counters().entries();
  for (const auto& [name, value] : network) EXPECT_NE(value, 0u) << name;
  for (const auto& [name, value] : cache) EXPECT_NE(value, 0u) << name;
  EXPECT_EQ(network, (Entries{{"bytes.query", 241229},
                               {"bytes.response", 735005},
                               {"bytes.total", 976234},
                               {"faults.dropped", 578},
                               {"faults.latency_spikes", 213},
                               {"faults.mangled", 219},
                               {"faults.rrsig_corrupted", 91},
                               {"faults.truncated", 168},
                               {"packets.query", 5849},
                               {"packets.response", 5271},
                               {"query.A", 2675},
                               {"query.AAAA", 1240},
                               {"query.DLV", 249},
                               {"query.DNSKEY", 310},
                               {"query.DS", 1049},
                               {"query.NS", 307},
                               {"query.PTR", 16},
                               {"query.TYPE65280", 1},
                               {"query.TYPE99", 2},
                               {"retries", 654},
                               {"timeouts", 578},
                               {"timeouts.partial", 322}}));
  EXPECT_EQ(cache, (Entries{{"cache.evicted", 5180},
                             {"cache.evicted.negative", 812},
                             {"cache.evicted.nsec", 440},
                             {"cache.evicted.positive", 2571},
                             {"cache.evicted.servfail", 71},
                             {"cache.evicted.zone_cut", 1286},
                             {"cache.expired_swept", 83},
                             {"cache.hit", 3046},
                             {"cache.miss", 6664},
                             {"cache.negative_hit", 190},
                             {"cache.servfail_hit", 14}}));
}

}  // namespace
}  // namespace lookaside::resolver
