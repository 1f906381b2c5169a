// Micro-benchmarks (google-benchmark) for the substrate hot paths: hashing,
// RSA, name canonicalization, the wire codec, caches, and full resolutions.
// Not a paper artifact — these guard the simulator's own performance.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "dlv/registry.h"
#include "dns/codec.h"
#include "dns/name_map.h"
#include "resolver/cache.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "workload/stub.h"
#include "workload/universe_world.h"
#include "zone/nsec3.h"

namespace {

using namespace lookaside;

void BM_Sha256_1KiB(benchmark::State& state) {
  const crypto::Bytes data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Sha1_1KiB(benchmark::State& state) {
  const crypto::Bytes data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha1_1KiB);

// serve-mix's registry parameters: 10 extra iterations, a 4-octet salt.
const crypto::Bytes kNsec3Salt = {0xab, 0xcd, 0xef, 0x01};

void BM_Nsec3Hash(benchmark::State& state) {
  const dns::Name name = dns::Name::parse("site-12345.com.dlv.isc.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone::nsec3_hash(name, kNsec3Salt, 10));
  }
}
BENCHMARK(BM_Nsec3Hash);

/// The first NSEC3 denial after a deposit: it rebuilds the hashed chain of
/// a registry the size of serve-mix's (about 56k owners) and signs the
/// proof. Each iteration deposits one more domain to dirty the chain.
void BM_Nsec3ChainBuild(benchmark::State& state) {
  dlv::DlvRegistry::Options options;
  options.nsec3_enabled = true;
  options.nsec3_iterations = 10;
  options.nsec3_salt = kNsec3Salt;
  dlv::DlvRegistry registry(options);
  registry.set_store_observations(false);
  const dns::DsRdata ds{1, 8, 2, crypto::Bytes(32, 0x42)};
  int deposits = 0;
  const auto deposit = [&] {
    registry.deposit(
        dns::Name::parse("site-" + std::to_string(deposits++) + ".com"), ds);
  };
  while (deposits < 56'000) deposit();
  const dns::Message denial = dns::Message::make_query(
      1, dns::Name::parse("absent.com.dlv.isc.org"), dns::RRType::kDlv, false,
      true);
  for (auto _ : state) {
    deposit();
    benchmark::DoNotOptimize(registry.handle_query(denial));
  }
}
BENCHMARK(BM_Nsec3ChainBuild)->Unit(benchmark::kMillisecond);

/// Signs 1,024 precomputed digests in turn: over one fixed digest the
/// branch predictor learns the multiplies' subtraction pattern, which no
/// online signer sees.
void sign_rotating_digests(benchmark::State& state, std::size_t bits) {
  crypto::SplitMix64 rng(1);
  const auto kp = crypto::generate_rsa_keypair(bits, rng);
  std::vector<crypto::Sha256::Digest> digests(1024);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    digests[i] = crypto::Sha256::digest("bench " + std::to_string(i));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.private_key.sign_digest(digests[next]));
    next = (next + 1) % digests.size();
  }
}

void BM_RsaSign256(benchmark::State& state) {
  sign_rotating_digests(state, 256);
}
BENCHMARK(BM_RsaSign256);

void BM_RsaVerify256(benchmark::State& state) {
  crypto::SplitMix64 rng(1);
  const auto kp = crypto::generate_rsa_keypair(256, rng);
  const auto digest = crypto::Sha256::digest("bench");
  const auto sig = kp.private_key.sign_digest(digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.public_key.verify_digest(digest, sig));
  }
}
BENCHMARK(BM_RsaVerify256);

void BM_RsaSign512(benchmark::State& state) {
  sign_rotating_digests(state, 512);
}
BENCHMARK(BM_RsaSign512);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Name::parse("www.some-domain-name.example.com"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCanonicalCompare(benchmark::State& state) {
  const dns::Name a = dns::Name::parse("alpha.example.com.dlv.isc.org");
  const dns::Name b = dns::Name::parse("omega.example.net.dlv.isc.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.canonical_compare(b));
  }
}
BENCHMARK(BM_NameCanonicalCompare);

void BM_NameCopy(benchmark::State& state) {
  // A universe SLD (14 octets, inside std::string's inline buffer) or its
  // DLV-suffixed form (26 octets, which allocates its text).
  const dns::Name sld = dns::Name::parse("site-2s-k7.com");
  const dns::Name name =
      state.range(0) == 14 ? sld : sld.concat(dns::Name::parse("dlv.isc.org"));
  for (auto _ : state) {
    dns::Name copy = name;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_NameCopy)->Arg(14)->Arg(26);

dns::Message sample_response() {
  dns::Message message = dns::Message::make_response(dns::Message::make_query(
      1, dns::Name::parse("example.com"), dns::RRType::kA, true, true));
  const dns::Name owner = dns::Name::parse("example.com");
  message.answers.push_back(
      dns::ResourceRecord::make(owner, 300, dns::ARdata{0x01020304}));
  dns::RrsigRdata sig;
  sig.type_covered = dns::RRType::kA;
  sig.signer = owner;
  sig.signature = dns::Bytes(32, 0x55);
  message.answers.push_back(dns::ResourceRecord::make(owner, 300, sig));
  message.authorities.push_back(dns::ResourceRecord::make(
      owner, 3600, dns::NsRdata{dns::Name::parse("ns1.example.com")}));
  return message;
}

void BM_MessageEncode(benchmark::State& state) {
  const dns::Message message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode_message(message));
  }
}
BENCHMARK(BM_MessageEncode);

void BM_WireSize(benchmark::State& state) {
  // BM_MessageEncode's message, sized the way sim::Network sizes every
  // packet it carries.
  const dns::Message message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::wire_size(message));
  }
}
BENCHMARK(BM_WireSize);

void BM_MessageDecode(benchmark::State& state) {
  const dns::Bytes wire = dns::encode_message(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode_message(wire));
  }
}
BENCHMARK(BM_MessageDecode);

void BM_NameHash(benchmark::State& state) {
  // The hash is memoized at construction; this measures the probe-time
  // cost cache lookups actually pay (a field read, not an FNV pass).
  const dns::Name name = dns::Name::parse("www.some-domain-name.example.com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(name.hash());
  }
}
BENCHMARK(BM_NameHash);

void BM_NameMapProbeHit(benchmark::State& state) {
  // The bare NameHashMap probe (control-byte prefilter + one Slot load):
  // no cache sections, no TTL checks — the floor the <30ns probe-hit
  // target is judged against.
  dns::NameHashMap<std::uint32_t> map;
  std::vector<dns::Name> names;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    names.push_back(
        dns::Name::parse("host" + std::to_string(i) + ".example.com"));
    map.get_or_insert(names.back()) = static_cast<std::uint32_t>(i);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(names[i]));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_NameMapProbeHit)->Arg(100)->Arg(10000);

void BM_CacheProbe_Hit(benchmark::State& state) {
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  std::vector<dns::Name> names;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    names.push_back(dns::Name::parse("host" + std::to_string(i) + ".example.com"));
    dns::RRset rrset(names.back(), dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(names.back(), 3600,
                                        dns::ARdata{0x01020304}));
    cache.store(rrset, /*validated=*/false);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(names[i], dns::RRType::kA));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_CacheProbe_Hit)->Arg(100)->Arg(10000);

void BM_CacheProbe_NegativeNsecCover(benchmark::State& state) {
  // One hash probe to the zone chain, then an ordered predecessor query:
  // the fast path the aggressive NSEC cache takes for every suppressed
  // DLV query once the chain is warm.
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  std::vector<dns::Name> probes;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + std::to_string(i) + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + std::to_string(i) +
                                                "a.com.dlv.isc.org"),
                               3600, nsec));
    probes.push_back(
        dns::Name::parse("d" + std::to_string(i) + "ax.com.dlv.isc.org"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_denial(apex, probes[i],
                                               dns::RRType::kDlv,
                                               resolver::DenialSources::kSpans));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_CacheProbe_NegativeNsecCover)->Arg(100)->Arg(10000);

void BM_CacheProbe_SpanSynth(benchmark::State& state) {
  // The unified find_denial probe with every source enabled: one
  // negative-table miss, one predecessor walk down the ordered NSEC chain,
  // one (empty) NSEC3 evidence probe. This is the per-query cost
  // fetch_from_cache pays when aggressive_synthesis is on.
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  std::vector<dns::Name> probes;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + std::to_string(i) + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + std::to_string(i) +
                                                "a.com.dlv.isc.org"),
                               3600, nsec));
    probes.push_back(
        dns::Name::parse("d" + std::to_string(i) + "ax.com.dlv.isc.org"));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_denial(apex, probes[i],
                                               dns::RRType::kDlv));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_CacheProbe_SpanSynth)->Arg(100)->Arg(10000);

void BM_CacheNsecCheck(benchmark::State& state) {
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  // Populate a chain with `range(0)` entries.
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + std::to_string(i) + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + std::to_string(i) +
                                                "a.com.dlv.isc.org"),
                               3600, nsec));
  }
  const dns::Name probe = dns::Name::parse("d500x.com.dlv.isc.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find_denial(
        apex, probe, dns::RRType::kDlv, resolver::DenialSources::kSpans));
  }
}
BENCHMARK(BM_CacheNsecCheck)->Arg(100)->Arg(10000);

void BM_CacheMaintainUnexpired(benchmark::State& state) {
  // One maintain() tick, the tail of every resolve(), on a cache holding
  // `range(0)` names in each store and nothing expired: the expiry sweep
  // rotates through the stores and reclaims nothing.
  sim::SimClock clock;
  resolver::ResolverCache cache(clock);
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const std::string tag = std::to_string(i);
    const dns::Name host = dns::Name::parse("host" + tag + ".example.com");
    dns::RRset rrset(host, dns::RRType::kA);
    rrset.add(dns::ResourceRecord::make(host, 3600, dns::ARdata{0x01020304}));
    cache.store(rrset, /*validated=*/false);
    cache.store_negative(dns::Name::parse("n" + tag + ".example.com"),
                         dns::RRType::kA, 3600, /*nxdomain=*/true);
    cache.store_servfail(dns::Name::parse("s" + tag + ".example.com"),
                         dns::RRType::kA, 3600);
    dns::NsecRdata nsec;
    nsec.next = dns::Name::parse("d" + tag + "b.com.dlv.isc.org");
    nsec.types = {dns::RRType::kDlv};
    cache.store_nsec(apex, dns::ResourceRecord::make(
                               dns::Name::parse("d" + tag + "a.com.dlv.isc.org"),
                               3600, nsec));
    cache.store_zone_cut(dns::Name::parse("z" + tag + ".com"), 3600);
  }
  for (auto _ : state) {
    cache.maintain();
  }
}
BENCHMARK(BM_CacheMaintainUnexpired)->Arg(100)->Arg(10000);

void BM_FullResolutionUncached(benchmark::State& state) {
  workload::WorldOptions world_options;
  world_options.universe.size = 1'000'000;
  workload::UniverseWorld world(world_options);
  sim::SimClock clock;
  sim::Network network(clock);
  world.registry().set_store_observations(false);
  resolver::RecursiveResolver resolver(
      network, world.directory(), resolver::ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());
  std::uint64_t rank = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve({world.universe().domain_at(rank), dns::RRType::kA}));
    rank = rank % 900'000 + 1;
  }
}
BENCHMARK(BM_FullResolutionUncached)->Unit(benchmark::kMicrosecond);

void BM_StubVisitWarmCaches(benchmark::State& state) {
  workload::WorldOptions world_options;
  world_options.universe.size = 100'000;
  workload::UniverseWorld world(world_options);
  sim::SimClock clock;
  sim::Network network(clock);
  world.registry().set_store_observations(false);
  resolver::RecursiveResolver resolver(
      network, world.directory(), resolver::ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());
  workload::StubClient stub(network, resolver);
  (void)stub.visit(world.universe().domain_at(42));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(stub.visit(world.universe().domain_at(42)));
  }
}
BENCHMARK(BM_StubVisitWarmCaches)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
