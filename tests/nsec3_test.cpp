// NSEC3 hashed denial: iterated-hash edge cases against the RFC 5155
// Appendix A vectors, base32hex round-trips, zone-side chain/proof
// construction, validator-side proof checking with metered hash cost, the
// RFC 9276 iteration-cap policy, and CPU-budget admission at the serving
// frontend (ctest -L nsec3).
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "dlv/registry.h"
#include "dns/codec.h"
#include "resolver/validator.h"
#include "serve/sharded.h"
#include "sim/clock.h"
#include "workload/client_mix.h"
#include "zone/keys.h"
#include "zone/nsec3.h"
#include "zone/signed_zone.h"
#include "zone/zone.h"

namespace lookaside {
namespace {

const crypto::Bytes kRfcSalt = {0xaa, 0xbb, 0xcc, 0xdd};

// ---- Iterated hash: RFC 5155 Appendix A vectors (salt aabbccdd, 12). ----

TEST(Nsec3HashTest, MatchesRfc5155AppendixA) {
  const auto owner_hash = [](const char* name) {
    return zone::base32hex_encode(
        zone::nsec3_hash(dns::Name::parse(name), kRfcSalt, 12));
  };
  EXPECT_EQ(owner_hash("example"), "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom");
  EXPECT_EQ(owner_hash("a.example"), "35mthgpgcu1qg68fab165klnsnk3dpvl");
  EXPECT_EQ(owner_hash("ai.example"), "gjeqe526plbf1g8mklp59enfd789njgi");
  EXPECT_EQ(owner_hash("x.y.w.example"), "2vptu5timamqttgl4luu9kg21e0aor3s");
  EXPECT_EQ(owner_hash("*.w.example"), "r53bq7cc2uvmubfu5ocmm6pers9tk9en");
}

TEST(Nsec3HashTest, ZeroIterationsIsOneHashOfNamePlusSalt) {
  const dns::Name name = dns::Name::parse("example.org");
  crypto::Bytes input = name.to_wire();
  input.insert(input.end(), kRfcSalt.begin(), kRfcSalt.end());
  EXPECT_EQ(zone::nsec3_hash(name, kRfcSalt, 0), crypto::Sha1::digest(input));
  EXPECT_EQ(zone::nsec3_hash_ops(0), 1u);
}

TEST(Nsec3HashTest, EmptySaltIsValid) {
  const dns::Name name = dns::Name::parse("example.org");
  const crypto::Sha1::Digest empty_salted = zone::nsec3_hash(name, {}, 3);
  EXPECT_EQ(empty_salted.size(), 20u);
  // The salt must actually participate: same name, different salt, new hash.
  EXPECT_NE(empty_salted, zone::nsec3_hash(name, kRfcSalt, 3));
  EXPECT_EQ(zone::nsec3_hash(name, {}, 0), crypto::Sha1::digest(name.to_wire()));
}

TEST(Nsec3HashTest, MaxCapIterationsTerminatesAndDiffers) {
  // The u16 ceiling: 65535 extra invocations — the worst bill a single
  // attacker-supplied NSEC3PARAM can demand.
  const dns::Name name = dns::Name::parse("example.org");
  const crypto::Sha1::Digest at_cap = zone::nsec3_hash(name, kRfcSalt, 65535);
  EXPECT_EQ(at_cap.size(), 20u);
  EXPECT_NE(at_cap, zone::nsec3_hash(name, kRfcSalt, 65534));
  EXPECT_EQ(zone::nsec3_hash_ops(65535), 65536u);
}

TEST(Nsec3HashTest, LongestNameAndSaltMatchTheDefinition) {
  // A 255-octet wire name and a 255-octet salt, the most either can be,
  // hashed as RFC 5155 §5 spells it out; one octet more salt throws.
  const dns::Name name = dns::Name::parse(
      std::string(63, 'a') + "." + std::string(63, 'b') + "." +
      std::string(63, 'c') + "." + std::string(61, 'd'));
  ASSERT_EQ(name.wire_length(), 255u);
  const crypto::Bytes salt(255, 0x5a);
  crypto::Bytes input = name.to_wire();
  input.insert(input.end(), salt.begin(), salt.end());
  crypto::Sha1::Digest expected = crypto::Sha1::digest(input);
  for (int k = 0; k < 2; ++k) {
    input.assign(expected.begin(), expected.end());
    input.insert(input.end(), salt.begin(), salt.end());
    expected = crypto::Sha1::digest(input);
  }
  EXPECT_EQ(zone::nsec3_hash(name, salt, 2), expected);
  EXPECT_THROW((void)zone::nsec3_hash(name, crypto::Bytes(256, 0x5a), 2),
               std::invalid_argument);
}

TEST(Nsec3HashTest, EverySaltLengthMatchesTheDefinition) {
  // Salts of 0-35 octets iterate on one pre-padded block; 36 and 255 take
  // the general loop. Each against RFC 5155 §5 spelled out.
  const dns::Name name = dns::Name::parse("site-12345.com.dlv.isc.org");
  std::vector<std::size_t> salt_sizes(37);
  std::iota(salt_sizes.begin(), salt_sizes.end(), 0);
  salt_sizes.push_back(255);
  std::vector<std::uint16_t> counts(21);
  std::iota(counts.begin(), counts.end(), 0);
  counts.push_back(150);
  for (const std::size_t salt_size : salt_sizes) {
    crypto::Bytes salt(salt_size);
    for (std::size_t i = 0; i < salt_size; ++i) {
      salt[i] = static_cast<std::uint8_t>(31 * i + salt_size);
    }
    crypto::Bytes input = name.to_wire();
    input.insert(input.end(), salt.begin(), salt.end());
    crypto::Sha1::Digest expected = crypto::Sha1::digest(input);
    std::uint16_t done = 0;
    for (const std::uint16_t iterations : counts) {
      for (; done < iterations; ++done) {
        input.assign(expected.begin(), expected.end());
        input.insert(input.end(), salt.begin(), salt.end());
        expected = crypto::Sha1::digest(input);
      }
      ASSERT_EQ(zone::nsec3_hash(name, salt, iterations), expected)
          << "salt=" << salt_size << " iterations=" << iterations;
    }
  }
}

TEST(Nsec3HashTest, HashIsCaseInsensitive) {
  EXPECT_EQ(zone::nsec3_hash(dns::Name::parse("ExAmPlE.OrG"), kRfcSalt, 5),
            zone::nsec3_hash(dns::Name::parse("example.org"), kRfcSalt, 5));
}

// ---- base32hex (RFC 4648 §7). ----

TEST(Base32HexTest, RoundTripsTwentyByteDigests) {
  const crypto::Sha1::Digest hash =
      zone::nsec3_hash(dns::Name::parse("round.trip"), kRfcSalt, 7);
  const crypto::Bytes digest(hash.begin(), hash.end());
  const std::string encoded = zone::base32hex_encode(digest);
  EXPECT_EQ(encoded.size(), 32u);
  EXPECT_EQ(zone::base32hex_decode(encoded), digest);
}

TEST(Base32HexTest, DecodeAcceptsUpperCase) {
  EXPECT_EQ(zone::base32hex_decode("7S"), zone::base32hex_decode("7s"));
}

TEST(Base32HexTest, DecodeRejectsBadInput) {
  EXPECT_THROW((void)zone::base32hex_decode("wxyz"), std::invalid_argument);
  EXPECT_THROW((void)zone::base32hex_decode("0"), std::invalid_argument);
  // 10 bits -> one byte + two leftover bits that are not zero padding.
  EXPECT_THROW((void)zone::base32hex_decode("7v"), std::invalid_argument);
}

TEST(Base32HexTest, EncodingPreservesDigestOrder) {
  // NSEC3 chains sort hashed owner labels lexicographically; that only
  // denies correctly because base32hex keeps the numeric digest order.
  const crypto::Bytes lo(20, 0x10);
  const crypto::Bytes hi(20, 0x11);
  EXPECT_LT(zone::base32hex_encode(lo), zone::base32hex_encode(hi));
}

// ---- Zone-side chain + validator-side proof checking. ----

class Nsec3ZoneTest : public ::testing::Test {
 protected:
  Nsec3ZoneTest() {
    const dns::Name apex = dns::Name::parse("dlv.example");
    dns::SoaRdata soa;
    soa.primary_ns = apex.with_prefix_label("ns1");
    soa.responsible = apex.with_prefix_label("admin");
    soa.minimum_ttl = 900;
    zone::Zone zone(apex, soa);
    zone.add(dns::ResourceRecord::make(
        dns::Name::parse("alpha.dlv.example"), 3600, dns::ARdata{0x01010101}));
    zone.add(dns::ResourceRecord::make(
        dns::Name::parse("beta.dlv.example"), 3600, dns::ARdata{0x02020202}));
    crypto::SplitMix64 rng(5);
    zone_ = std::make_unique<zone::SignedZone>(std::move(zone),
                                               zone::ZoneKeys::generate(256, rng));
    zone_->enable_nsec3(zone::Nsec3Params{11, kRfcSalt});
  }

  /// Packs proofs into the shape the validator sees (an authority section).
  resolver::GroupedSection as_authority(
      const std::vector<zone::NsecProof>& proofs) {
    std::vector<dns::ResourceRecord> section;
    for (const zone::NsecProof& proof : proofs) {
      section.push_back(proof.nsec);
      section.push_back(proof.rrsig);
    }
    return resolver::group_section(section);
  }

  std::unique_ptr<zone::SignedZone> zone_;
  sim::SimClock clock_;
  resolver::Validator validator_{clock_};
};

TEST_F(Nsec3ZoneTest, ApexCarriesNsec3Param) {
  const dns::RRset* param = zone_->zone().find(
      dns::Name::parse("dlv.example"), dns::RRType::kNsec3Param);
  ASSERT_NE(param, nullptr);
  const auto& rdata =
      std::get<dns::Nsec3ParamRdata>(param->records().front().rdata);
  EXPECT_EQ(rdata.iterations, 11);
  EXPECT_EQ(rdata.salt, kRfcSalt);
}

TEST_F(Nsec3ZoneTest, NxdomainProofVerifiesWithMeteredCost) {
  const dns::Name missing = dns::Name::parse("gamma.dlv.example");
  const resolver::GroupedSection authority =
      as_authority(zone_->nsec3_nxdomain_proof(missing));
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      authority, missing, dns::RRType::kDlv, dns::Name::parse("dlv.example"),
      zone_->signer().dnskey_rrset());
  EXPECT_TRUE(check.proven);
  EXPECT_EQ(check.iterations, 11);
  // Closest-encloser discovery hashed at least qname, one ancestor and the
  // wildcard — each a full iterated chain.
  EXPECT_GE(check.hash_ops, 3 * zone::nsec3_hash_ops(11));
}

TEST_F(Nsec3ZoneTest, NodataProofVerifies) {
  // RFC 5155 §8.5: the NSEC3 matching qname proves NODATA only for a type
  // its bitmap omits. alpha holds an A record, so A is not denied.
  const dns::Name apex = dns::Name::parse("dlv.example");
  const dns::Name present = dns::Name::parse("alpha.dlv.example");
  const resolver::GroupedSection authority =
      as_authority(zone_->nsec3_nodata_proof(present));
  EXPECT_TRUE(validator_
                  .check_nsec3_denial(authority, present, dns::RRType::kAaaa,
                                      apex, zone_->signer().dnskey_rrset())
                  .proven);
  EXPECT_FALSE(validator_
                   .check_nsec3_denial(authority, present, dns::RRType::kA,
                                       apex, zone_->signer().dnskey_rrset())
                   .proven);
}

TEST_F(Nsec3ZoneTest, ProofWithoutClosestEncloserDoesNotVerify) {
  // Strip the NSEC3 that matches the closest encloser (the apex) from
  // gamma's proof: the §8.4 ancestor walk then never finds a match, so the
  // remaining covering spans alone must not convince the validator.
  const dns::Name apex = dns::Name::parse("dlv.example");
  const dns::Name missing = dns::Name::parse("gamma.dlv.example");
  const dns::Name apex_owner = zone::nsec3_owner(apex, apex, kRfcSalt, 11);
  std::vector<zone::NsecProof> proofs;
  for (zone::NsecProof& proof : zone_->nsec3_nxdomain_proof(missing)) {
    if (proof.nsec.name == apex_owner) continue;
    proofs.push_back(std::move(proof));
  }
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      as_authority(proofs), missing, dns::RRType::kDlv, apex,
      zone_->signer().dnskey_rrset());
  EXPECT_FALSE(check.proven);
}

TEST_F(Nsec3ZoneTest, QnameOutsideApexDoesNotVerify) {
  const resolver::GroupedSection authority = as_authority(
      zone_->nsec3_nxdomain_proof(dns::Name::parse("gamma.dlv.example")));
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      authority, dns::Name::parse("gamma.other.example"), dns::RRType::kDlv,
      dns::Name::parse("dlv.example"), zone_->signer().dnskey_rrset());
  EXPECT_FALSE(check.proven);
}

TEST_F(Nsec3ZoneTest, TamperedProofDoesNotVerify) {
  const dns::Name missing = dns::Name::parse("gamma.dlv.example");
  std::vector<zone::NsecProof> proofs = zone_->nsec3_nxdomain_proof(missing);
  auto& rdata = std::get<dns::Nsec3Rdata>(proofs.front().nsec.rdata);
  rdata.next_hashed[0] ^= 0x01;  // break the span (and the signature)
  const resolver::Nsec3Check check = validator_.check_nsec3_denial(
      as_authority(proofs), missing, dns::RRType::kDlv,
      dns::Name::parse("dlv.example"), zone_->signer().dnskey_rrset());
  EXPECT_FALSE(check.proven);
}

// ---- A registry-sized chain, pinned through the authority's answers. ----

TEST(Nsec3ChainTest, ProofsKnownAnswer) {
  // Every NSEC3 owner, next hash, type bitmap and signature that a
  // registry's denials carry, pinned by a SHA-256 over the encoded answers.
  dlv::DlvRegistry::Options options;
  options.apex = dns::Name::parse("dlv.example");
  options.key_bits = 256;
  options.nsec3_enabled = true;
  options.nsec3_iterations = 10;
  options.nsec3_salt = kRfcSalt;
  dlv::DlvRegistry registry(options);
  std::vector<dns::Name> owners = {options.apex};
  for (int i = 0; i < 3000; ++i) {
    const dns::Name domain =
        dns::Name::parse("d" + std::to_string(i) + ".example.com");
    registry.deposit(domain, dns::DsRdata{static_cast<std::uint16_t>(i), 8, 2,
                                          dns::Bytes(32, i & 0xFF)});
    owners.push_back(registry.dlv_name_for(domain));
  }

  // w56's hash sorts below every owner's, so its next-closer span is the
  // last-to-first wraparound one.
  const dns::Name wrapped = dns::Name::parse("w56.dlv.example");
  const auto wrapped_hash = zone::nsec3_hash(wrapped, kRfcSalt, 10);
  for (const dns::Name& owner : owners) {
    ASSERT_LT(wrapped_hash, zone::nsec3_hash(owner, kRfcSalt, 10))
        << owner.to_text();
  }

  struct Query {
    dns::Name name;
    dns::RRType type;
    dns::RCode rcode;
  };
  const Query queries[] = {
      // Deposited: NODATA, one matching NSEC3.
      {owners[18], dns::RRType::kA, dns::RCode::kNoError},
      // Undeposited: the closest encloser is the apex.
      {dns::Name::parse("absent.example.com.dlv.example"), dns::RRType::kDlv,
       dns::RCode::kNxDomain},
      // Below a deposit: the closest encloser is d42's owner.
      {dns::Name::parse("www.d42.example.com.dlv.example"), dns::RRType::kDlv,
       dns::RCode::kNxDomain},
      {wrapped, dns::RRType::kDlv, dns::RCode::kNxDomain},
  };
  crypto::Sha256 hash;
  std::size_t nsec3_records = 0;
  for (const Query& query : queries) {
    const dns::Message response = registry.handle_query(
        dns::Message::make_query(1, query.name, query.type, false, true));
    EXPECT_EQ(response.header.rcode, query.rcode) << query.name.to_text();
    for (const dns::ResourceRecord& record : response.authorities) {
      nsec3_records += record.type == dns::RRType::kNsec3 ? 1 : 0;
    }
    hash.update(dns::encode_message(response));
  }
  EXPECT_EQ(nsec3_records, 10u);
  EXPECT_EQ(crypto::to_hex(hash.finish()),
            "53f33c0290f4d71b5d5ac75a7d8557829110c0ea4935afd7da5ee92e27ee320e");
}

// ---- Resolver policy + frontend admission, end to end. ----

serve::ScenarioOptions nsec3_scenario(std::uint16_t iterations) {
  serve::ScenarioOptions options;
  options.universe_size = 1'000;
  options.seed = 5;
  options.mix.clients = 4;
  options.mix.queries_per_client = 12;
  options.mix.zipf_support = 200;
  options.mix.mean_gap_us = 100'000;
  options.dlv.nsec3_enabled = true;
  options.dlv.nsec3_iterations = iterations;
  options.dlv.nsec3_salt = kRfcSalt;
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  options.resolver_config.nsec3_hash_cost_ns = 2'000;
  return options;
}

/// One resolver serving the whole population: a one-shard run.
serve::ScenarioSummary serve_one(serve::ScenarioOptions options) {
  serve::ShardedOptions sharded;
  sharded.base = std::move(options);
  return serve::ShardedServeScenario(std::move(sharded)).run().merged;
}

TEST(Nsec3PolicyTest, UncappedResolverPaysPerIteration) {
  serve::ScenarioOptions cheap = nsec3_scenario(16);
  serve::ScenarioOptions dear = nsec3_scenario(800);
  const serve::ScenarioSummary cheap_run = serve_one(cheap);
  const serve::ScenarioSummary dear_run = serve_one(dear);
  EXPECT_GT(cheap_run.validation_cpu_us, 0u);
  // 50x the iterations must cost well over an order of magnitude more.
  EXPECT_GT(dear_run.validation_cpu_us, cheap_run.validation_cpu_us * 10);
}

TEST(Nsec3PolicyTest, Rfc9276CapSkipsOverCapHashing) {
  serve::ScenarioOptions options = nsec3_scenario(800);
  options.resolver_config.nsec3_iteration_cap = 150;  // downgrade-to-insecure
  const serve::ScenarioSummary capped = serve_one(options);
  EXPECT_EQ(capped.validation_cpu_us, 0u);
  // The denials still resolve (downgraded, not SERVFAILed): leaks happen.
  EXPECT_GT(capped.case2_total, 0u);
}

TEST(Nsec3PolicyTest, CapUnderIterationsStillHashes) {
  serve::ScenarioOptions options = nsec3_scenario(100);
  options.resolver_config.nsec3_iteration_cap = 150;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_GT(run.validation_cpu_us, 0u);
}

TEST(Nsec3AdmissionTest, StarvedBudgetShedsWithServfail) {
  serve::ScenarioOptions options = nsec3_scenario(800);
  // A budget far below the workload's validation demand: after the burst
  // is spent, queries must shed instead of hashing.
  options.frontend.cpu_budget_us_per_s = 200;
  options.frontend.cpu_burst_us = 2'000;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_GT(run.cpu_drops, 0u);

  // Same world without the budget: nothing sheds.
  const serve::ScenarioSummary open = serve_one(nsec3_scenario(800));
  EXPECT_EQ(open.cpu_drops, 0u);
}

TEST(Nsec3AdmissionTest, StarvedBudgetKnownAnswerSummary) {
  // Every field of the starved-budget run above, pinned.
  serve::ScenarioOptions options = nsec3_scenario(800);
  options.frontend.cpu_budget_us_per_s = 200;
  options.frontend.cpu_burst_us = 2'000;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_EQ(run.served, 61u);
  EXPECT_EQ(run.coalesce_hits, 2u);
  EXPECT_EQ(run.coalesce_misses, 4u);
  EXPECT_EQ(run.overload_drops, 0u);
  EXPECT_EQ(run.cpu_drops, 55u);
  EXPECT_EQ(run.max_queue_depth, 6u);
  EXPECT_EQ(run.validation_cpu_us, 25'632u);
  EXPECT_DOUBLE_EQ(run.qps, 78.236121745665912);
  EXPECT_DOUBLE_EQ(run.p50_ms, 477.777);
  EXPECT_DOUBLE_EQ(run.p99_ms, 614.408);
  EXPECT_DOUBLE_EQ(run.benign_p99_ms, 614.408);
  EXPECT_EQ(run.case2_total, 4u);
  EXPECT_EQ(run.distinct_leaked, 4u);
  EXPECT_EQ(run.leaked_domains,
            (std::set<std::string>{"site-2-mx.uk", "site-54-oh.com",
                                   "site-7-qi.org", "site-o-cn.net"}));
  EXPECT_EQ(run.case2_per_client,
            (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

TEST(Nsec3AdmissionTest, GenerousBudgetNeverSheds) {
  serve::ScenarioOptions options = nsec3_scenario(800);
  options.frontend.cpu_budget_us_per_s = 10'000'000;
  options.frontend.cpu_burst_us = 10'000'000;
  const serve::ScenarioSummary run = serve_one(options);
  EXPECT_EQ(run.cpu_drops, 0u);
  EXPECT_GT(run.validation_cpu_us, 0u);
}

// ---- Adversarial ClientMix. ----

TEST(Nsec3MixTest, AttackFractionSplitsThePopulation) {
  workload::ClientMixOptions options;
  options.clients = 8;
  options.attack_fraction = 0.5;
  EXPECT_EQ(workload::ClientMix(options).first_attacker(), 4u);
  options.attack_fraction = 0.0;
  EXPECT_EQ(workload::ClientMix(options).first_attacker(), 8u);
  options.attack_fraction = 1.0;
  EXPECT_EQ(workload::ClientMix(options).first_attacker(), 0u);
}

TEST(Nsec3MixTest, AttackersCacheBustWhileBenignShareAHead) {
  workload::Universe universe({.seed = 41, .size = 2'000});
  workload::ClientMixOptions options;
  options.clients = 4;
  options.queries_per_client = 40;
  options.zipf_support = 25;
  options.attack_fraction = 0.5;
  const workload::ClientMix mix(options);
  const std::vector<workload::ClientQuery> schedule = mix.generate(universe);

  std::set<std::string> benign_names;
  std::set<std::string> attacker_names;
  std::uint64_t attacker_queries = 0;
  for (const workload::ClientQuery& query : schedule) {
    if (query.type != dns::RRType::kA) continue;
    if (query.client < mix.first_attacker()) {
      benign_names.insert(query.name.to_text());
    } else {
      attacker_names.insert(query.name.to_text());
      ++attacker_queries;
    }
  }
  // The benign head is bounded by the Zipf support; the attackers draw
  // nearly distinct names across the whole universe.
  EXPECT_LE(benign_names.size(), 25u);
  EXPECT_GT(attacker_names.size(), attacker_queries * 9 / 10);

  // Determinism: the schedule is a pure function of its options.
  EXPECT_EQ(schedule.size(), mix.generate(universe).size());
}

}  // namespace
}  // namespace lookaside
