#include "sim/fault.h"

#include <cstdlib>

namespace lookaside::sim {

namespace {

/// Splits `text` on whitespace runs.
std::vector<std::string_view> split_tokens(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) out.push_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

bool parse_probability(std::string_view text, double* out) {
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  // Written so that NaN, which fails every comparison, is rejected too.
  if (!(value >= 0.0 && value <= 1.0)) return false;
  *out = value;
  return true;
}

/// Parses "<number>{us|ms|s}" into microseconds. Rejects NaN, infinities
/// and durations of 2^64 µs or more, which no std::uint64_t holds.
bool parse_duration_us(std::string_view text, std::uint64_t* out) {
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str()) return false;
  const std::string_view suffix(end);
  double scale = 0.0;
  if (suffix == "us") scale = 1.0;
  else if (suffix == "ms") scale = 1e3;
  else if (suffix == "s") scale = 1e6;
  else return false;
  const double us = value * scale;
  // 2^64 as a double is exact; NaN fails both comparisons.
  if (!(us >= 0.0 && us < 18446744073709551616.0)) return false;
  *out = static_cast<std::uint64_t>(us);
  return true;
}

bool parse_rcode(std::string_view text, dns::RCode* out) {
  if (text == "SERVFAIL") { *out = dns::RCode::kServFail; return true; }
  if (text == "REFUSED") { *out = dns::RCode::kRefused; return true; }
  if (text == "NXDOMAIN") { *out = dns::RCode::kNxDomain; return true; }
  if (text == "FORMERR") { *out = dns::RCode::kFormErr; return true; }
  if (text == "NOTIMP") { *out = dns::RCode::kNotImp; return true; }
  return false;
}

}  // namespace

bool FaultSpec::all_zero() const {
  return loss == 0.0 && response_loss == 0.0 && spike_probability == 0.0 &&
         outage_end_us == 0 && truncate == 0.0 && mangle == 0.0 &&
         rrsig_corrupt == 0.0;
}

std::optional<FaultSpec> FaultSpec::parse(std::string_view text) {
  const std::vector<std::string_view> tokens = split_tokens(text);
  if (tokens.empty()) return std::nullopt;
  FaultSpec spec;
  spec.endpoint = std::string(tokens.front());
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "loss") {
      if (!parse_probability(value, &spec.loss)) return std::nullopt;
    } else if (key == "rloss") {
      if (!parse_probability(value, &spec.response_loss)) return std::nullopt;
    } else if (key == "truncate") {
      if (!parse_probability(value, &spec.truncate)) return std::nullopt;
    } else if (key == "corrupt") {
      if (!parse_probability(value, &spec.rrsig_corrupt)) return std::nullopt;
    } else if (key == "spike") {
      // spike=P:DUR
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      if (!parse_probability(value.substr(0, colon), &spec.spike_probability) ||
          !parse_duration_us(value.substr(colon + 1), &spec.spike_us)) {
        return std::nullopt;
      }
    } else if (key == "outage") {
      // outage=DUR..DUR
      const std::size_t dots = value.find("..");
      if (dots == std::string_view::npos) return std::nullopt;
      if (!parse_duration_us(value.substr(0, dots), &spec.outage_start_us) ||
          !parse_duration_us(value.substr(dots + 2), &spec.outage_end_us)) {
        return std::nullopt;
      }
      if (spec.outage_end_us <= spec.outage_start_us) return std::nullopt;
    } else if (key == "rcode") {
      // rcode=NAME:P
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      if (!parse_rcode(value.substr(0, colon), &spec.mangle_rcode) ||
          !parse_probability(value.substr(colon + 1), &spec.mangle)) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

bool FaultPlan::inert() const {
  for (const FaultSpec& spec : specs) {
    if (!spec.all_zero()) return false;
  }
  return true;
}

void FaultInjector::set_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  plan_active_ = !plan_.inert();
  rng_ = crypto::SplitMix64(plan_.seed);
}

void FaultInjector::set_unreachable(const std::string& endpoint_id,
                                    bool unreachable) {
  if (unreachable) {
    unreachable_.insert(endpoint_id);
  } else {
    unreachable_.erase(endpoint_id);
  }
}

FaultDecision FaultInjector::decide(const std::string& endpoint_id,
                                    std::uint64_t now_us) {
  FaultDecision decision;
  // Degenerate plan entries first: deterministic, no randomness consumed.
  if (!unreachable_.empty() && unreachable_.count(endpoint_id) != 0) {
    decision.drop_query = true;
    decision.cause = "unreachable";
    return decision;
  }
  if (!plan_active_) return decision;

  for (const FaultSpec& spec : plan_.specs) {
    if (spec.endpoint != "*" && spec.endpoint != endpoint_id) continue;
    if (spec.outage_end_us > spec.outage_start_us &&
        now_us >= spec.outage_start_us && now_us < spec.outage_end_us) {
      decision.drop_query = true;
      decision.cause = "outage";
      return decision;  // deterministic window, no RNG consumed
    }
    if (spec.loss > 0.0 && rng_.next_double() < spec.loss) {
      decision.drop_query = true;
      decision.cause = "loss";
      return decision;
    }
    if (spec.response_loss > 0.0 && rng_.next_double() < spec.response_loss) {
      decision.drop_response = true;
      decision.cause = "response-loss";
      // Response-leg faults still walk the remaining specs for latency:
      // the query is in flight either way. Mangling is moot, stop here.
      return decision;
    }
    if (spec.spike_probability > 0.0 &&
        rng_.next_double() < spec.spike_probability) {
      decision.added_latency_us =
          saturating_add(decision.added_latency_us, spec.spike_us);
      decision.cause = "latency-spike";
    }
    if (spec.truncate > 0.0 && rng_.next_double() < spec.truncate) {
      decision.truncate = true;
      decision.cause = "truncate";
    }
    if (spec.mangle > 0.0 && rng_.next_double() < spec.mangle) {
      decision.rewrite_rcode = spec.mangle_rcode;
      decision.cause = "rcode-rewrite";
    }
    if (spec.rrsig_corrupt > 0.0 && rng_.next_double() < spec.rrsig_corrupt) {
      decision.corrupt_rrsigs = true;
      decision.cause = "rrsig-corrupt";
    }
  }
  return decision;
}

}  // namespace lookaside::sim
