// Small-scale DNS testbed: a real root zone, TLD zones and SLD zones wired
// together, replacing the paper's live DNS hierarchy for the secured-domain
// experiments (Section 5.2 / Table 3), tests and examples.
//
// Million-domain workloads use workload::UniverseAuthority instead; this
// builder materializes every zone with real keys and real signatures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/directory.h"
#include "server/zone_authority.h"
#include "zone/keys.h"

namespace lookaside::server {

/// Synthetic record data every simulated authority serves, the Testbed's
/// and the synthetic universe's alike: the SOA at `apex`, and fixed
/// documentation-range addresses derived from the FNV-1a 64 of a name.
[[nodiscard]] dns::SoaRdata synthetic_soa(const dns::Name& apex);
[[nodiscard]] std::uint32_t synthetic_v4(const dns::Name& name);
[[nodiscard]] dns::AaaaRdata synthetic_v6(const dns::Name& name);

/// Specification of one second-level domain in the testbed.
struct SldSpec {
  std::string name;          // e.g. "example.com"
  bool dnssec_signed = false;
  bool ds_in_parent = false;  // false + signed == "island of security"
  bool corrupt_signatures = false;  // failure injection -> bogus
  std::vector<std::string> extra_hosts;  // extra A-record labels ("www", ...)
};

/// Testbed-wide options.
struct TestbedOptions {
  std::size_t key_bits = 512;
  std::uint64_t seed = 1;
};

/// Builds and owns the full server-side hierarchy.
class Testbed {
 public:
  Testbed(TestbedOptions options, const std::vector<SldSpec>& slds);

  [[nodiscard]] ServerDirectory& directory() { return directory_; }

  /// The root KSK DNSKEY — what a correctly configured resolver installs as
  /// its trust anchor.
  [[nodiscard]] const dns::DnskeyRdata& root_trust_anchor() const;

  /// The signed SLD zone for `name`, or nullptr when the SLD is unsigned.
  [[nodiscard]] std::shared_ptr<zone::SignedZone> signed_sld(
      const std::string& name) const;

  /// The authority serving `apex_text` ("", "com", "example.com"), or null.
  [[nodiscard]] std::shared_ptr<ZoneAuthority> authority(
      const std::string& apex_text) const;

  /// Adds/updates the paper's TXT-signaling record ("dlv=1"/"dlv=0") at an
  /// SLD apex (remedy §6.2.1).
  void set_txt_dlv_signal(const std::string& sld, bool has_dlv_record);

  /// The SLDs the testbed was built with, in the order of their specs.
  [[nodiscard]] const std::vector<std::string>& sld_names() const {
    return sld_names_;
  }

 private:
  ServerDirectory directory_;
  std::map<std::string, std::shared_ptr<ZoneAuthority>> authorities_;
  std::map<std::string, std::shared_ptr<zone::SignedZone>> signed_slds_;
  std::vector<std::string> sld_names_;
  dns::DnskeyRdata root_ksk_;
};

}  // namespace lookaside::server
