#include "workload/universe.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "crypto/rng.h"

namespace lookaside::workload {

namespace {

// Calibrated model constants (DESIGN.md "Calibrated model constants").
// P(chained to root | rank): signed with DS in parent. ~2% flat.
constexpr double kChainSecureProbability = 0.02;
// Extra islands that never deposited anywhere (signed, no DS, no DLV).
constexpr double kOrphanIslandProbability = 0.01;
// P(nameservers in-bailiwick, glue served by the TLD).
constexpr double kGlueProbability = 0.40;
// Number of distinct out-of-bailiwick hosting providers.
constexpr std::uint64_t kProviderCount = 2000;
// Deposit model: each TLD's "top" rate applies up to kDepositTopBand ranks
// (driving §5.3's Case-1 utility) and its "tail" rate from
// kDepositTailBand on (driving the DLV zone's NSEC gap density and hence
// Fig. 9's decay); the rates log-interpolate in between. Deposited domains
// are signed islands (signed, no DS in parent, DS in the DLV registry).
constexpr std::uint64_t kDepositTopBand = 10'000;
constexpr std::uint64_t kDepositTailBand = 100'000;

// Approximate Alexa TLD mix (share of ranked sites) and each TLD's DLV
// adoption skew (deposit rate at the top ranks and in the tail).
//
// The tail deposit density varies by orders of magnitude between TLDs,
// which is what makes Fig. 9's decay log-linear: a DLV-zone region with
// almost no deposits is covered by a handful of NSEC ranges (its queries
// aggregate after the first few hit the cache), while a dense region keeps
// producing fresh ranges until N is large. The suppression crossover for a
// TLD sits near share_tld * N ~ gap count, so spreading gap counts across
// decades spreads crossovers across decades of N.
struct TldProfile {
  const char* tld;
  double share;
  double top_rate;
  double tail_rate;
};
// Minor TLDs: a few NSEC ranges cover everything early.
constexpr double kMinorTop = 0.002;
constexpr double kMinorTail = 0.00005;
constexpr TldProfile kTlds[] = {
    {"com", 0.52, 0.14, 0.10},  // dense: suppresses last
    {"net", 0.13, 0.10, 0.010},
    {"org", 0.10, 0.10, 0.010},
    {"ru", 0.05, 0.008, 0.0004},
    {"de", 0.04, 0.010, 0.0008},
    {"jp", 0.03, kMinorTop, kMinorTail},
    {"uk", 0.03, kMinorTop, kMinorTail},
    {"br", 0.02, kMinorTop, kMinorTail},
    {"info", 0.02, kMinorTop, kMinorTail},
    {"fr", 0.015, kMinorTop, kMinorTail},
    {"it", 0.015, kMinorTop, kMinorTail},
    {"nl", 0.01, kMinorTop, kMinorTail},
    {"pl", 0.01, kMinorTop, kMinorTail},
    {"in", 0.01, kMinorTop, kMinorTail},
    {"cn", 0.01, kMinorTop, kMinorTail},
    {"edu", 0.01, kMinorTop, kMinorTail},
};

// The highest deposit rate any TLD reaches at any rank.
constexpr double kMaxDepositRate = [] {
  double out = 0;
  for (const TldProfile& entry : kTlds) {
    out = std::max({out, entry.top_rate, entry.tail_rate});
  }
  return out;
}();

std::string base36(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  if (value == 0) return "0";
  std::string out;
  while (value != 0) {
    out.push_back(kDigits[value % 36]);
    value /= 36;
  }
  return {out.rbegin(), out.rend()};
}

std::optional<std::uint64_t> parse_base36(std::string_view text) {
  std::uint64_t value = 0;
  if (text.empty()) return std::nullopt;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'z') digit = c - 'a' + 10;
    else return std::nullopt;
    value = value * 36 + static_cast<std::uint64_t>(digit);
  }
  return value;
}

constexpr std::string_view kDomainPrefix = "site-";
constexpr std::string_view kProviderPrefix = "hostprov";

}  // namespace

Universe::Universe(UniverseOptions options)
    : options_(options),
      top_band_(std::min(kDepositTopBand, options_.size)),
      tail_band_(std::max(kDepositTailBand, top_band_ + 1)),
      log_top_band_(std::log10(static_cast<double>(top_band_))),
      log_tail_band_(std::log10(static_cast<double>(tail_band_))) {
  double cumulative = 0;
  for (const TldProfile& entry : kTlds) {
    tlds_.emplace_back(entry.tld);
    cumulative += entry.share;
    tld_cumulative_.push_back(cumulative);
  }
  // Normalize the last bucket to 1.0 so every rank lands somewhere.
  tld_cumulative_.back() = 1.0;
}

std::uint64_t Universe::mix(std::uint64_t rank, std::uint64_t salt) const {
  return crypto::derive_seed(options_.seed ^ (salt * 0x9e3779b97f4a7c15ULL),
                             rank);
}

double Universe::unit(std::uint64_t rank, std::uint64_t salt) const {
  return static_cast<double>(mix(rank, salt) >> 11) * 0x1.0p-53;
}

std::size_t Universe::tld_index(std::uint64_t rank) const {
  const double u = unit(rank, 1);
  for (std::size_t i = 0; i < tld_cumulative_.size(); ++i) {
    if (u < tld_cumulative_[i]) return i;
  }
  return tlds_.size() - 1;
}

std::string Universe::domain_text(std::uint64_t rank, std::size_t tld) const {
  // Label: "site-<rank36>-<2 hash chars>" — rank recoverable, names vary.
  const std::uint64_t h = mix(rank, 2);
  std::string text(kDomainPrefix);
  text += base36(rank);
  text += '-';
  text += static_cast<char>('a' + h % 26);
  text += static_cast<char>('a' + (h / 26) % 26);
  text += '.';
  text += tlds_[tld];
  return text;
}

dns::Name Universe::domain_at(std::uint64_t rank) const {
  if (rank == 0 || rank > options_.size) {
    throw std::invalid_argument("rank outside universe");
  }
  return dns::Name::parse(domain_text(rank, tld_index(rank)));
}

std::optional<Universe::Parsed> Universe::parse_domain(
    const dns::Name& name) const {
  if (name.label_count() < 2) return std::nullopt;
  // The SLD label is the second-from-last.
  const std::string_view label = name.label(name.label_count() - 2);
  if (label.substr(0, kDomainPrefix.size()) != kDomainPrefix) {
    return std::nullopt;
  }
  const std::string_view tail = label.substr(kDomainPrefix.size());
  const std::size_t dash = tail.rfind('-');
  if (dash == std::string_view::npos) return std::nullopt;
  const auto rank = parse_base36(tail.substr(0, dash));
  if (!rank.has_value() || *rank == 0 || *rank > options_.size) {
    return std::nullopt;
  }
  // Verify the checksum characters and TLD so foreign names are rejected.
  const std::size_t tld = tld_index(*rank);
  std::string text = domain_text(*rank, tld);
  const std::string_view expected(text);
  const std::size_t dot = expected.find('.');
  if (expected.substr(0, dot) != label ||
      expected.substr(dot + 1) != name.label(name.label_count() - 1)) {
    return std::nullopt;
  }
  return Parsed{*rank, tld, std::move(text)};
}

std::optional<std::uint64_t> Universe::rank_of(const dns::Name& name) const {
  const auto parsed = parse_domain(name);
  if (!parsed.has_value()) return std::nullopt;
  return parsed->rank;
}

double Universe::deposit_probability(std::uint64_t rank,
                                     std::size_t tld) const {
  const double top = kTlds[tld].top_rate;
  const double tail = kTlds[tld].tail_rate;
  double p;
  if (rank <= top_band_) {
    p = top;
  } else if (rank >= tail_band_) {
    p = tail;
  } else {
    // Log-space interpolation between the bands.
    const double t = (std::log10(static_cast<double>(rank)) - log_top_band_) /
                     (log_tail_band_ - log_top_band_);
    p = top + t * (tail - top);
  }
  return std::clamp(p, 0.0, 1.0);
}

Universe::Deployment Universe::deployment(std::uint64_t rank,
                                          std::size_t tld) const {
  const double roll = unit(rank, 3);
  const double p_chain = kChainSecureProbability;
  const double p_deposit = deposit_probability(rank, tld);
  const double p_orphan = kOrphanIslandProbability;
  if (roll < p_chain) return Deployment::kChained;
  if (roll < p_chain + p_deposit) return Deployment::kDeposited;
  if (roll < p_chain + p_deposit + p_orphan) return Deployment::kOrphan;
  return Deployment::kUnsigned;
}

bool Universe::deposited(std::uint64_t rank) const {
  // No TLD's rate exceeds kMaxDepositRate, so a roll at or past
  // p_chain + kMaxDepositRate rules a deposit out without the TLD.
  if (unit(rank, 3) >= kChainSecureProbability + kMaxDepositRate) {
    return false;
  }
  return deployment(rank, tld_index(rank)) == Deployment::kDeposited;
}

std::vector<std::uint64_t> Universe::deposits() const {
  // A name is "site-<rank in base 36>-<2 letters>.<tld>", so canonical
  // order is the TLD label's text, then the base-36 digits' text: '-' sorts
  // below every digit, so a rank whose digits prefix another's comes first
  // and the letters never decide. Visiting ranks in digit-text order and
  // appending each deposit to its TLD's list leaves every list sorted.
  std::vector<std::vector<std::uint64_t>> by_tld(tlds_.size());
  std::uint64_t rank = 1;
  for (std::uint64_t visited = 0; visited < options_.size; ++visited) {
    if (deposited(rank)) by_tld[tld_index(rank)].push_back(rank);
    // Next in digit-text order: the first child (append digit 0) if it is
    // in range, else the next sibling of the nearest level that has one.
    if (rank <= options_.size / 36) {
      rank *= 36;
    } else {
      while (rank % 36 == 35 || rank >= options_.size) rank /= 36;
      ++rank;
    }
  }
  std::vector<std::size_t> tld_order(tlds_.size());
  std::iota(tld_order.begin(), tld_order.end(), 0);
  std::sort(tld_order.begin(), tld_order.end(),
            [&](std::size_t a, std::size_t b) { return tlds_[a] < tlds_[b]; });
  std::vector<std::uint64_t> out;
  for (const std::size_t tld : tld_order) {
    out.insert(out.end(), by_tld[tld].begin(), by_tld[tld].end());
  }
  return out;
}

DomainInfo Universe::describe(std::uint64_t rank, std::size_t tld,
                              dns::Name name) const {
  DomainInfo out;
  out.rank = rank;
  out.name = std::move(name);
  out.tld = tlds_[tld];
  switch (deployment(rank, tld)) {
    case Deployment::kChained:
      out.dnssec_signed = true;
      out.ds_in_parent = true;
      break;
    case Deployment::kDeposited:
      out.dnssec_signed = true;
      out.dlv_deposited = true;  // island with a DLV record
      break;
    case Deployment::kOrphan:
      out.dnssec_signed = true;  // orphan island
      break;
    case Deployment::kUnsigned:
      break;
  }
  out.glue = unit(rank, 4) < kGlueProbability;
  out.provider = mix(rank, 5) % kProviderCount;
  return out;
}

DomainInfo Universe::info(std::uint64_t rank) const {
  return describe(rank, tld_index(rank), domain_at(rank));
}

std::optional<DomainInfo> Universe::info_by_name(const dns::Name& name) const {
  const auto parsed = parse_domain(name);
  if (!parsed.has_value()) return std::nullopt;
  return describe(parsed->rank, parsed->tld, dns::Name::parse(parsed->text));
}

dns::Name Universe::provider_ns_host(std::uint64_t provider) const {
  return dns::Name::parse("ns1." + std::string(kProviderPrefix) +
                          base36(provider) + ".net");
}

std::optional<std::uint64_t> Universe::provider_of(
    const dns::Name& name) const {
  if (name.label_count() < 2) return std::nullopt;
  const std::string_view label = name.label(name.label_count() - 2);
  if (label.substr(0, kProviderPrefix.size()) != kProviderPrefix) {
    return std::nullopt;
  }
  if (name.label(name.label_count() - 1) != "net") return std::nullopt;
  const auto provider = parse_base36(label.substr(kProviderPrefix.size()));
  if (!provider.has_value() || *provider >= kProviderCount) {
    return std::nullopt;
  }
  return provider;
}

}  // namespace lookaside::workload
