// The synthetic Alexa-like domain universe.
//
// Replaces the paper's Alexa top-1M list (the list itself is gone; the
// paper's findings depend on *rates*, not specific names). The universe maps
// a rank (1-based, "popularity") to a deterministic domain name and a
// deployment profile:
//
//   - TLD drawn from a popularity mix approximating Alexa's;
//   - whether the SLD is DNSSEC-signed, and if signed, whether its DS made
//     it into the parent (no DS => island of security, paper §2.3);
//   - whether the owner deposited a DLV record (rank-biased: the paper's
//     §5.3 found ~12% of the top-10k received "No error" while DNSSEC
//     deployment overall was ~3%, so deposits skew popular);
//   - nameserver placement: in-bailiwick (glue served by the TLD) or one of
//     a pool of out-of-bailiwick hosting providers (forces visible A
//     lookups — part of Table 4's A-query mix).
//
// The rank is embedded in the name label so synthetic authorities can
// recover the profile from a query name without any reverse index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"

namespace lookaside::workload {

/// The universe's seed and size. Every rate of the deployment model is a
/// calibrated constant in universe.cpp (DESIGN.md "Calibrated model
/// constants").
struct UniverseOptions {
  std::uint64_t seed = 42;
  std::uint64_t size = 1'000'000;  // total ranks
};

/// Everything the simulator needs to know about one domain.
struct DomainInfo {
  std::uint64_t rank = 0;
  dns::Name name;
  std::string tld;
  bool dnssec_signed = false;
  bool ds_in_parent = false;   // chained to root
  bool dlv_deposited = false;  // island with a DLV record
  bool glue = false;           // in-bailiwick nameservers
  std::uint64_t provider = 0;  // meaningful when !glue
};

/// Deterministic rank -> domain mapping.
class Universe {
 public:
  explicit Universe(UniverseOptions options);

  [[nodiscard]] std::uint64_t size() const { return options_.size; }

  /// Domain profile at `rank` (1-based; rank must be in [1, size]).
  [[nodiscard]] DomainInfo info(std::uint64_t rank) const;

  /// True when the owner of `rank` deposited a DLV record; equals
  /// info(rank).dlv_deposited, decided from the rank alone (no name).
  [[nodiscard]] bool deposited(std::uint64_t rank) const;

  /// Every deposited rank, ordered by the canonical (RFC 4034) order of
  /// its domain name. Builds no names.
  [[nodiscard]] std::vector<std::uint64_t> deposits() const;

  /// Just the name at `rank` (cheaper than info()).
  [[nodiscard]] dns::Name domain_at(std::uint64_t rank) const;

  /// Recovers the rank from a universe domain name (or its subdomain);
  /// nullopt if the name was not generated by this universe.
  [[nodiscard]] std::optional<std::uint64_t> rank_of(
      const dns::Name& name) const;

  /// Profile for a universe name; nullopt for foreign names.
  [[nodiscard]] std::optional<DomainInfo> info_by_name(
      const dns::Name& name) const;

  /// Name of an out-of-bailiwick provider nameserver host
  /// ("ns1.hostprov<k>.net").
  [[nodiscard]] dns::Name provider_ns_host(std::uint64_t provider) const;

  /// True when `name` is one of the provider SLDs ("hostprov<k>.net").
  [[nodiscard]] std::optional<std::uint64_t> provider_of(
      const dns::Name& name) const;

  /// The TLD strings the universe uses, most popular first.
  [[nodiscard]] const std::vector<std::string>& tlds() const { return tlds_; }

 private:
  /// How a rank's owner deployed DNSSEC (DomainInfo's three flags).
  enum class Deployment { kUnsigned, kChained, kDeposited, kOrphan };

  [[nodiscard]] std::uint64_t mix(std::uint64_t rank,
                                  std::uint64_t salt) const;
  [[nodiscard]] double unit(std::uint64_t rank, std::uint64_t salt) const;
  /// Index into tlds() of the TLD at `rank`.
  [[nodiscard]] std::size_t tld_index(std::uint64_t rank) const;
  [[nodiscard]] double deposit_probability(std::uint64_t rank,
                                           std::size_t tld) const;
  [[nodiscard]] Deployment deployment(std::uint64_t rank,
                                      std::size_t tld) const;
  /// Dotted text of the domain at `rank` under TLD `tld`.
  [[nodiscard]] std::string domain_text(std::uint64_t rank,
                                        std::size_t tld) const;
  [[nodiscard]] DomainInfo describe(std::uint64_t rank, std::size_t tld,
                                    dns::Name name) const;

  /// A universe domain (or a name under one), verified.
  struct Parsed {
    std::uint64_t rank;
    std::size_t tld;
    std::string text;  // domain_text(rank, tld)
  };
  [[nodiscard]] std::optional<Parsed> parse_domain(const dns::Name& name) const;

  UniverseOptions options_;
  std::vector<std::string> tlds_;
  std::vector<double> tld_cumulative_;
  // Deposit-rate bands for this size and their log10 (deposit_probability).
  std::uint64_t top_band_ = 0;
  std::uint64_t tail_band_ = 0;
  double log_top_band_ = 0;
  double log_tail_band_ = 0;
};

}  // namespace lookaside::workload
