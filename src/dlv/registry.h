// DLV registry server (RFC 5074 / RFC 4431): the third party at the center
// of the paper.
//
// The registry hosts a signed zone under its apex (e.g. dlv.isc.org). Zone
// owners deposit DS-shaped DLV records named <domain>.<apex>; validators
// query type 32769. Every query is recorded in the observation log — that
// log IS the adversary's view, and classifying it into Case-1/Case-2 is the
// paper's leakage measurement.
//
// The registry also implements the paper's §6.2.2 privacy-preserving mode
// (hashed registration) and the ISC phase-out state (empty zone kept
// running, §7.3.2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "server/zone_authority.h"
#include "sim/network.h"
#include "zone/keys.h"
#include "zone/signed_zone.h"

namespace lookaside::obs {
class Tracer;
}

namespace lookaside::dlv {

/// RFC 5074 name mapping: <domain>.<apex> ("example.com.dlv.isc.org").
[[nodiscard]] dns::Name clear_dlv_name(const dns::Name& domain,
                                       const dns::Name& apex);

/// §6.2.2 privacy-preserving mapping: hex(SHA-256(domain))[:32].<apex>.
/// Both the registrar and the validator compute this independently.
[[nodiscard]] dns::Name hashed_dlv_name(const dns::Name& domain,
                                        const dns::Name& apex);

/// One query as seen by the DLV operator.
struct Observation {
  std::uint64_t time_us = 0;
  dns::Name query_name;            // e.g. example.com.dlv.isc.org
  dns::Name domain;                // recovered domain (empty in hashed mode)
  dns::RRType qtype = dns::RRType::kDlv;
  bool had_record = false;         // a DLV RRset existed at the exact name
};

/// The DLV registry: an authoritative server plus deposit/observation APIs.
class DlvRegistry : public sim::Endpoint {
 public:
  struct Options {
    dns::Name apex = dns::Name::parse("dlv.isc.org");
    std::size_t key_bits = 512;
    std::uint64_t seed = 0xD17;
    std::uint32_t negative_ttl = 3600;
    /// §6.2.2: register and serve crypto_hash(domain) instead of the name.
    bool hashed_registration = false;
    /// RFC 5155: serve NSEC3 hashed denial instead of plain NSEC. The
    /// iteration count is the attacker-relevant CPU knob (RFC 9276 wants 0;
    /// historical zones shipped hundreds).
    bool nsec3_enabled = false;
    std::uint16_t nsec3_iterations = 0;
    crypto::Bytes nsec3_salt;
  };

  explicit DlvRegistry(Options options);

  // -- Registration side (what a zone owner does) --------------------------

  /// Deposits `ds` for `domain`. In hashed mode the owner label becomes
  /// hex(SHA-256(domain)) truncated to 32 hex chars.
  void deposit(const dns::Name& domain, dns::DsRdata ds);

  /// True when a DLV record for `domain` is registered.
  [[nodiscard]] bool has_record(const dns::Name& domain) const;

  /// ISC's 2017 phase-out: drop all delegated zones but keep answering
  /// (every subsequent query is Case-2 leakage by construction).
  void remove_all_records();

  [[nodiscard]] std::size_t record_count() const { return record_count_; }

  // -- Query-name mapping (shared with the resolver) -----------------------

  /// DLV owner name a validator should query for `domain`
  /// (clear: domain+apex; hashed: hex digest label + apex).
  [[nodiscard]] dns::Name dlv_name_for(const dns::Name& domain) const;

  [[nodiscard]] const dns::Name& apex() const { return options_.apex; }
  [[nodiscard]] bool hashed_registration() const {
    return options_.hashed_registration;
  }

  /// The registry's KSK record — the "DLV trust anchor" resolvers configure.
  [[nodiscard]] const dns::DnskeyRdata& trust_anchor() const;

  // -- sim::Endpoint --------------------------------------------------------

  [[nodiscard]] std::string endpoint_id() const override;
  [[nodiscard]] dns::Message handle_query(const dns::Message& query) override;

  // -- Adversary's view -----------------------------------------------------

  [[nodiscard]] const std::vector<Observation>& observations() const {
    return observations_;
  }
  /// Leave accounting on but stop storing per-query observations (for
  /// million-domain runs, where counts are tracked by the analyzer instead).
  void set_store_observations(bool store) { store_observations_ = store; }
  /// Streaming hook invoked for every observation regardless of storage.
  void set_observer(std::function<void(const Observation&)> observer) {
    observer_ = std::move(observer);
  }

  /// Running totals (kept even when storage is off).
  [[nodiscard]] std::uint64_t total_queries() const { return total_queries_; }
  [[nodiscard]] std::uint64_t queries_with_record() const {
    return queries_with_record_;
  }

  /// Needs a clock to timestamp observations; optional.
  void attach_clock(const sim::SimClock& clock) { clock_ = &clock; }

  /// Attaches a structured tracer (nullable). Separate from set_observer —
  /// the analyzer's streaming hook and the trace stream coexist. Every
  /// observation is emitted as a kDlvObservation event tagged Case-1
  /// (record deposited) or Case-2 (leak).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  void rebuild_zone();

  Options options_;
  std::optional<zone::ZoneKeys> keys_;  // survives remove_all_records()
  std::shared_ptr<zone::SignedZone> zone_;
  std::unique_ptr<server::ZoneAuthority> authority_;
  std::vector<Observation> observations_;
  bool store_observations_ = true;
  std::function<void(const Observation&)> observer_;
  std::uint64_t total_queries_ = 0;
  std::uint64_t queries_with_record_ = 0;
  std::size_t record_count_ = 0;
  const sim::SimClock* clock_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace lookaside::dlv
