// Quickstart: build a tiny DNS world, resolve a few domains through a
// validating DLV-enabled recursive resolver, and watch what the DLV
// registry — a third party — learns about the user's browsing.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "dlv/registry.h"
#include "resolver/resolver.h"
#include "server/testbed.h"
#include "sim/clock.h"

int main() {
  using namespace lookaside;

  // 1. Server side: a root zone, TLD zones and three SLDs —
  //    one unsigned, one fully chained to the root, and one "island of
  //    security" (signed, but no DS record in .com).
  server::Testbed testbed(server::TestbedOptions{},
                          {
                              {"shoes.com", /*signed=*/false, false, false, {}},
                              {"bank.com", /*signed=*/true, /*ds=*/true, false, {}},
                              {"island.com", /*signed=*/true, /*ds=*/false, false, {}},
                          });

  // 2. The DLV registry (the paper's dlv.isc.org stand-in). The island
  //    deposits its key there — that is what DLV is for.
  dlv::DlvRegistry registry(dlv::DlvRegistry::Options{});
  registry.deposit(dns::Name::parse("island.com"),
                   testbed.signed_sld("island.com")->signer().ds_for_parent());
  testbed.directory().register_zone(
      registry.apex(),
      std::shared_ptr<sim::Endpoint>(&registry, [](sim::Endpoint*) {}));

  // 3. A recursive resolver configured the way CentOS's yum package ships
  //    BIND: validation on, trust anchors present, dnssec-lookaside auto.
  sim::SimClock clock;
  sim::Network network(clock);
  registry.attach_clock(clock);
  resolver::RecursiveResolver resolver(network, testbed.directory(),
                                       resolver::ResolverConfig::bind_yum());
  resolver.set_root_trust_anchor(testbed.root_trust_anchor());
  resolver.set_dlv_trust_anchor(registry.trust_anchor());

  // 4. Resolve. Watch the validation status and the DLV traffic.
  for (const char* name : {"bank.com", "island.com", "shoes.com"}) {
    const auto result =
        resolver.resolve({dns::Name::parse(name), dns::RRType::kA});
    std::cout << name << ": rcode=" << dns::rcode_name(result.response.header.rcode)
              << " status=" << resolver::status_name(result.status)
              << (result.dlv.secured ? " (via DLV)" : "")
              << " dlv_queries=" << result.dlv.query_names.size() << "\n";
    if (const auto* a = result.response.first_answer(dns::RRType::kA)) {
      std::cout << "    " << a->to_text() << "\n";
    }
  }

  // 5. The privacy story: what did the third party see?
  std::cout << "\nThe DLV registry observed:\n";
  for (const auto& observation : registry.observations()) {
    std::cout << "    " << observation.query_name.to_text()
              << (observation.had_record
                      ? "  [Case-1: record deposited, legitimate]"
                      : "  [Case-2: NO record -> pure privacy leakage]")
              << "\n";
  }
  std::cout << "\nshoes.com never asked for DLV's help — it is not even\n"
               "DNSSEC-signed — yet the registry now knows it was visited.\n"
               "That is the paper's finding in one run.\n";
  return 0;
}
