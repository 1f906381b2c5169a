#include "workload/stub.h"

#include <utility>

#include "crypto/fnv.h"

namespace lookaside::workload {

namespace {

dns::Name reverse_name(std::uint32_t address) {
  return dns::Name::parse(std::to_string(address & 0xFF) + "." +
                          std::to_string((address >> 8) & 0xFF) + "." +
                          std::to_string((address >> 16) & 0xFF) + "." +
                          std::to_string(address >> 24) + ".in-addr.arpa");
}

}  // namespace

StubClient::StubClient(sim::Network& network,
                       resolver::RecursiveResolver& resolver,
                       StubOptions options)
    : network_(&network), resolver_(&resolver), options_(options) {}

dns::Message StubClient::ask(const dns::Name& name, dns::RRType type) {
  const dns::Message query = dns::Message::make_query(
      next_id_++, name, type, /*recursion_desired=*/true, options_.dnssec_ok);
  ++queries_sent_;
  auto response = network_->exchange("stub", *resolver_, query);
  return std::move(response).value_or(dns::Message{});
}

VisitOutcome StubClient::visit(const dns::Name& domain) {
  VisitOutcome outcome;
  const dns::Message a_response = ask(domain, dns::RRType::kA);
  outcome.rcode = a_response.header.rcode;
  const dns::ResourceRecord* a = a_response.first_answer(dns::RRType::kA);
  outcome.got_address = a != nullptr;

  if (options_.query_aaaa) {
    (void)ask(domain, dns::RRType::kAaaa);
  }
  if (a != nullptr &&
      crypto::fnv1a_unit(domain.internal_text()) < options_.ptr_probability) {
    const auto& rdata = std::get<dns::ARdata>(a->rdata);
    (void)ask(reverse_name(rdata.address), dns::RRType::kPtr);
  }
  return outcome;
}

}  // namespace lookaside::workload
