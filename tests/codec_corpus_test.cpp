// Encoder pins over real traffic. The corpus is every message a small
// seeded universe exchanges (stub <-> recursive and recursive <-> every
// authority, wired the way UniverseExperiment wires them), once with the
// plain-NSEC DLV registry and once with an NSEC3 registry, plus NSEC3PARAM
// queries at the NSEC3 registry's apex. Over it this suite pins:
//  - a known-answer digest of encode_message (traffic volumes in Table 5 and
//    Fig. 10 are these byte counts, so the bytes must not move);
//  - wire_size and rdata_wire_length against the encoded bytes;
//  - allocation counts: sizing allocates nothing, encoding only its result;
//  - that the counting heap shim sees the allocations library algorithms
//    make.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "dns/codec.h"
#include "dns/rdata.h"
#include "resolver/resolver.h"
#include "server/directory.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "workload/universe_world.h"

// The encoder entry points are specified by how many allocations they
// make, so this binary counts every operator new.
#include "heap_shim.h"

namespace lookaside {
namespace {

/// Forwards to an endpoint and logs each query and its response.
class Recorder : public sim::Endpoint {
 public:
  Recorder(sim::Endpoint& inner, std::vector<dns::Message>& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] std::string endpoint_id() const override {
    return inner_->endpoint_id();
  }
  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override {
    log_->push_back(query);
    dns::Message response = inner_->handle_query(query);
    log_->push_back(response);
    return response;
  }
  [[nodiscard]] std::uint64_t latency_override_us(
      const dns::Message& query) const override {
    return inner_->latency_override_us(query);
  }

 private:
  sim::Endpoint* inner_;
  std::vector<dns::Message>* log_;
};

/// Appends the traffic of 48 stub visits (A with DO off, AAAA with DO on,
/// every fourth visit a PTR) to `log`.
void record_universe(bool nsec3_registry, std::vector<dns::Message>& log) {
  workload::WorldOptions options;
  options.universe.size = 2'000;
  options.universe.seed = 7;
  options.dlv.nsec3_enabled = nsec3_registry;
  options.dlv.nsec3_iterations = nsec3_registry ? 3 : 0;
  if (nsec3_registry) options.dlv.nsec3_salt = {0xAB, 0xCD};
  workload::UniverseWorld world(options);
  sim::SimClock clock;
  sim::Network network(clock);
  world.registry().attach_clock(clock);

  // Every authority lookup goes through the fallback, so every upstream
  // exchange passes through a Recorder.
  std::map<sim::Endpoint*, std::unique_ptr<Recorder>> recorders;
  server::ServerDirectory directory;
  directory.set_fallback([&](const dns::Name& apex) -> sim::Endpoint* {
    sim::Endpoint* inner = world.directory().authority_for_zone(apex);
    if (inner == nullptr) return nullptr;
    std::unique_ptr<Recorder>& recorder = recorders[inner];
    if (!recorder) recorder = std::make_unique<Recorder>(*inner, log);
    return recorder.get();
  });
  resolver::ResolverConfig config = resolver::ResolverConfig::bind_yum();
  config.ns_fetch_probability = 0.30;
  resolver::RecursiveResolver resolver(network, directory, config);
  resolver.set_root_trust_anchor(world.root_trust_anchor());
  resolver.set_dlv_trust_anchor(world.registry().trust_anchor());

  Recorder stub_side(resolver, log);
  std::uint16_t id = 1;
  auto ask = [&](const dns::Name& name, dns::RRType type, bool dnssec_ok) {
    return network
        .exchange("stub", stub_side,
                  dns::Message::make_query(id++, name, type,
                                           /*recursion_desired=*/true,
                                           dnssec_ok))
        .value_or(dns::Message{});
  };
  for (std::uint64_t rank = 1; rank <= 48; ++rank) {
    const dns::Name domain = world.universe().domain_at(rank);
    const dns::Message a = ask(domain, dns::RRType::kA, false);
    (void)ask(domain, dns::RRType::kAaaa, true);
    const dns::ResourceRecord* address = a.first_answer(dns::RRType::kA);
    if (rank % 4 == 0 && address != nullptr) {
      const std::uint32_t v = std::get<dns::ARdata>(address->rdata).address;
      (void)ask(dns::Name::parse(std::to_string(v & 0xFF) + "." +
                                 std::to_string((v >> 8) & 0xFF) + "." +
                                 std::to_string((v >> 16) & 0xFF) + "." +
                                 std::to_string(v >> 24) + ".in-addr.arpa"),
                dns::RRType::kPtr, rank % 8 == 0);
    }
  }
  if (nsec3_registry) {
    // Resolvers never ask for NSEC3PARAM; query the registry directly,
    // with an OPT record both times so the corpus has DO off under EDNS.
    const dns::Name apex = world.registry().apex();
    Recorder registry(world.registry(), log);
    for (const bool dnssec_ok : {false, true}) {
      dns::Message query =
          dns::Message::make_query(id++, apex, dns::RRType::kNsec3Param,
                                   /*recursion_desired=*/false, dnssec_ok);
      query.edns = true;
      (void)network.exchange("recursive", registry, query);
    }
  }
}

const std::vector<dns::Message>& corpus() {
  static const std::vector<dns::Message> messages = [] {
    std::vector<dns::Message> log;
    record_universe(/*nsec3_registry=*/false, log);
    record_universe(/*nsec3_registry=*/true, log);
    return log;
  }();
  return messages;
}

std::vector<const dns::ResourceRecord*> records_of(const dns::Message& m) {
  std::vector<const dns::ResourceRecord*> out;
  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    for (const dns::ResourceRecord& record : *section) out.push_back(&record);
  }
  return out;
}

TEST(CodecCorpusTest, CoversEveryTypeTheWorldEmitsWithDoOnAndOff) {
  std::set<dns::RRType> types;
  std::set<bool> do_bits;
  for (const dns::Message& message : corpus()) {
    for (const dns::ResourceRecord* record : records_of(message)) {
      types.insert(record->type);
    }
    if (message.edns) {
      types.insert(dns::RRType::kOpt);
      do_bits.insert(message.dnssec_ok);
    }
  }
  for (const dns::RRType type :
       {dns::RRType::kA, dns::RRType::kAaaa, dns::RRType::kNs,
        dns::RRType::kSoa, dns::RRType::kPtr, dns::RRType::kDs,
        dns::RRType::kDlv, dns::RRType::kDnskey, dns::RRType::kRrsig,
        dns::RRType::kNsec, dns::RRType::kNsec3, dns::RRType::kNsec3Param,
        dns::RRType::kOpt}) {
    EXPECT_EQ(types.count(type), 1u) << dns::rr_type_name(type);
  }
  EXPECT_EQ(do_bits, (std::set<bool>{false, true}));
}

TEST(CodecCorpusTest, EncodeMessageKnownAnswer) {
  // Recorded before the encoder was rewritten around a counting writer; a
  // change here moves every byte count the paper's tables are built from.
  crypto::Sha256 hash;
  std::size_t octets = 0;
  for (const dns::Message& message : corpus()) {
    const dns::Bytes wire = dns::encode_message(message);
    octets += wire.size();
    const std::uint8_t length[2] = {static_cast<std::uint8_t>(wire.size() >> 8),
                                    static_cast<std::uint8_t>(wire.size())};
    hash.update(length, 2);
    hash.update(wire);
  }
  EXPECT_EQ(corpus().size(), 2036u);
  EXPECT_EQ(octets, 212362u);
  EXPECT_EQ(crypto::to_hex(hash.finish()),
            "307a4bdd0a88fab8560f07956ef4546fc041d15a7a3e92294e6c039fc36d3db2");
}

TEST(CodecCorpusTest, SizesEqualEncodedLengths) {
  for (const dns::Message& message : corpus()) {
    const dns::Bytes wire = dns::encode_message(message);
    ASSERT_EQ(dns::wire_size(message), wire.size());
    for (const dns::ResourceRecord* record : records_of(message)) {
      dns::ByteWriter writer;
      dns::encode_rdata(record->rdata, writer);
      ASSERT_EQ(dns::rdata_wire_length(record->rdata), writer.size())
          << dns::rr_type_name(record->type);
    }
  }
}

TEST(CodecAllocationTest, SizingAllocatesNothingAndEncodingOnlyItsResult) {
  long wire_size_allocations = 0;
  long rdata_length_allocations = 0;
  long encode_allocations = 0;
  std::size_t total = 0;
  for (const dns::Message& message : corpus()) {
    long before = heap_shim::allocations();
    total += dns::wire_size(message);
    wire_size_allocations += heap_shim::allocations() - before;

    for (const dns::ResourceRecord* record : records_of(message)) {
      before = heap_shim::allocations();
      total += dns::rdata_wire_length(record->rdata);
      rdata_length_allocations += heap_shim::allocations() - before;
    }

    before = heap_shim::allocations();
    const dns::Bytes wire = dns::encode_message(message);
    encode_allocations += heap_shim::allocations() - before;
    total += wire.size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(wire_size_allocations, 0);
  EXPECT_EQ(rdata_length_allocations, 0);
  EXPECT_EQ(encode_allocations, static_cast<long>(corpus().size()));
}

TEST(HeapShimTest, StableSortBufferAllocatesAndFreesThroughTheShim) {
  // std::stable_sort takes its temporary buffer from the nothrow operator
  // new. Were that form left to the runtime, the buffer would be freed
  // through the shim's delete, which ASan aborts on as a mismatch.
  std::vector<int> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 2654435761u) % 1000);
  }
  const long allocations_before = heap_shim::allocations();
  const long long live_before = heap_shim::live_bytes();
  std::stable_sort(values.begin(), values.end());
  EXPECT_GT(heap_shim::allocations(), allocations_before);
  EXPECT_EQ(heap_shim::live_bytes(), live_before);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

}  // namespace
}  // namespace lookaside
