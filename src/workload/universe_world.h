// Server-side assembly of the synthetic universe: a real signed root zone,
// one synthetic authority per TLD, a single shared authority impersonating
// every SLD server, a reverse-lookup authority, and a DLV registry populated
// from the universe's deposit model.
//
// Synthetic authorities answer byte-accurate, correctly signed messages
// without materializing a million Zone objects; they sign through the same
// lazy, cached zone::Signer as the real zones.
#pragma once

#include <memory>
#include <string>

#include "dlv/registry.h"
#include "server/directory.h"
#include "server/zone_authority.h"
#include "workload/universe.h"
#include "zone/keys.h"

namespace lookaside::obs {
class Tracer;
}

namespace lookaside::workload {

/// World-level options.
struct WorldOptions {
  UniverseOptions universe;
  std::uint64_t seed = 7;
  std::size_t key_bits = 256;    // fast-simulation default (DESIGN.md)
  bool txt_signaling = false;    // §6.2.1 TXT remedy served by SLDs
  bool z_bit_signaling = false;  // §6.2.1 Z-bit remedy
  dlv::DlvRegistry::Options dlv;
};

/// Owns every server-side object of a universe experiment.
class UniverseWorld {
 public:
  explicit UniverseWorld(WorldOptions options);

  [[nodiscard]] server::ServerDirectory& directory() { return directory_; }
  [[nodiscard]] dlv::DlvRegistry& registry() { return *registry_; }
  [[nodiscard]] const Universe& universe() const { return universe_; }
  [[nodiscard]] const dns::DnskeyRdata& root_trust_anchor() const {
    return root_anchor_;
  }
  [[nodiscard]] const WorldOptions& options() const { return options_; }

  /// Key pool shared by synthetic SLD zones (exposed for tests).
  [[nodiscard]] const zone::KeyPool& sld_keys() const { return *sld_keys_; }

  /// Threads a tracer (nullable) into the world's instrumented servers:
  /// the DLV registry (Case-1/Case-2 observations) and the root authority
  /// (outcome counts). Synthetic TLD/SLD authorities stay uninstrumented —
  /// their traffic is captured at the network layer.
  void set_tracer(obs::Tracer* tracer) {
    registry_->set_tracer(tracer);
    root_authority_->set_tracer(tracer);
  }

 private:
  WorldOptions options_;
  Universe universe_;
  std::unique_ptr<zone::KeyPool> sld_keys_;
  server::ServerDirectory directory_;
  std::unique_ptr<dlv::DlvRegistry> registry_;
  std::shared_ptr<server::ZoneAuthority> root_authority_;
  dns::DnskeyRdata root_anchor_;
  std::vector<std::shared_ptr<sim::Endpoint>> tld_authorities_;
  std::shared_ptr<sim::Endpoint> sld_authority_;
  std::shared_ptr<sim::Endpoint> ptr_authority_;
};

}  // namespace lookaside::workload
