#include "sim/network.h"

#include <utility>

namespace lookaside::sim {

const metrics::CounterSet Network::counters() const {
  metrics::CounterSet out;
  const auto put = [&](std::string_view name, std::uint64_t value) {
    if (value != 0) out.add(name, value);
  };
  put("packets.query", counts_.packets_query);
  put("packets.response", counts_.packets_response);
  put("bytes.query", counts_.bytes_query);
  put("bytes.response", counts_.bytes_response);
  put("bytes.total", counts_.bytes_query + counts_.bytes_response);
  put("timeouts", counts_.timeouts);
  put("timeouts.partial", counts_.timeouts_partial);
  put("faults.dropped", counts_.faults_dropped);
  put("faults.mangled", counts_.faults_mangled);
  put("faults.truncated", counts_.faults_truncated);
  put("faults.rrsig_corrupted", counts_.faults_rrsig_corrupted);
  put("faults.latency_spikes", counts_.faults_latency_spikes);
  put("retries", counts_.retries);
  const auto put_query = [&](std::size_t code, std::uint64_t count) {
    if (count == 0) return;  // before building the name
    put("query." + dns::rr_type_name(static_cast<dns::RRType>(code)), count);
  };
  for (std::size_t code = 0; code < counts_.queries_by_type.size(); ++code) {
    put_query(code, counts_.queries_by_type[code]);
  }
  for (const auto& [code, count] : counts_.queries_by_high_type) {
    put_query(code, count);
  }
  return out;
}

void Network::record(PacketRecord packet) {
  if (packet.is_query) {
    ++counts_.packets_query;
    counts_.bytes_query += packet.bytes;
    if (packet.has_question) {
      const auto code = static_cast<std::uint16_t>(packet.qtype);
      if (code < counts_.queries_by_type.size()) {
        ++counts_.queries_by_type[code];
      } else {
        ++counts_.queries_by_high_type[code];
      }
    }
  } else {
    ++counts_.packets_response;
    counts_.bytes_response += packet.bytes;
  }
  for (const auto& observer : observers_) observer(packet);
  if (capture_enabled_) capture_.push_back(std::move(packet));
}

void Network::notify_fault(const dns::Message& query, const std::string& to,
                           const char* cause) {
  if (fault_observers_.empty()) return;
  FaultNotice notice;
  notice.time_us = clock_->now_us();
  notice.endpoint = to;
  notice.cause = cause;
  if (!query.questions.empty()) {
    notice.has_question = true;
    notice.qname = query.question().name;
    notice.qtype = query.question().type;
  }
  for (const auto& observer : fault_observers_) observer(notice);
}

void Network::charge_timeout(const dns::Message& query, const std::string& to,
                             std::uint64_t wait_us, const char* cause,
                             bool partial) {
  clock_->advance_us(wait_us);
  ++counts_.timeouts;
  if (partial) ++counts_.timeouts_partial;
  ++counts_.faults_dropped;
  notify_fault(query, to, cause);
}

std::optional<dns::Message> Network::exchange(const std::string& from,
                                              Endpoint& server,
                                              const dns::Message& query,
                                              std::uint64_t timeout_us) {
  const std::string to = server.endpoint_id();
  const std::uint64_t timeout = timeout_us != 0 ? timeout_us : timeout_us_;
  const std::size_t query_bytes = dns::wire_size(query);

  PacketRecord query_record;
  query_record.time_us = clock_->now_us();
  query_record.from = from;
  query_record.to = to;
  query_record.bytes = query_bytes;
  query_record.is_query = true;
  if (!query.questions.empty()) {
    query_record.has_question = true;
    query_record.qname = query.question().name;
    query_record.qtype = query.question().type;
  }
  record(std::move(query_record));

  FaultDecision fault = injector_.decide(to, clock_->now_us());
  if (fault.drop_query) {
    // The query never reaches the server; the caller waits out its timer.
    charge_timeout(query, to, timeout, fault.cause, /*partial=*/false);
    return std::nullopt;
  }

  std::uint64_t one_way = server.latency_override_us(query);
  if (one_way == 0) one_way = latency_.one_way_us(to);
  if (fault.added_latency_us != 0) ++counts_.faults_latency_spikes;

  clock_->advance_us(one_way);
  dns::Message response = server.handle_query(query);

  // Response-leg loss, or a latency spike that outlives the caller's timer:
  // the server answered (and the query leaked) but the caller gives up. The
  // round trip saturates, so a spike too long to add up is a timeout too.
  const std::uint64_t round_trip = saturating_add(
      saturating_add(one_way, one_way), fault.added_latency_us);
  const bool spike_timeout = fault.added_latency_us != 0 &&
                             round_trip >= timeout;
  if (fault.drop_response || spike_timeout) {
    const std::uint64_t remaining = timeout > one_way ? timeout - one_way : 0;
    charge_timeout(query, to, remaining,
                   fault.drop_response ? fault.cause : "spike-timeout",
                   /*partial=*/true);
    return std::nullopt;
  }

  if (fault.rewrite_rcode.has_value()) {
    response.header.rcode = *fault.rewrite_rcode;
    response.answers.clear();
    response.authorities.clear();
    response.additionals.clear();
    ++counts_.faults_mangled;
    notify_fault(query, to, fault.cause);
  }
  if (fault.truncate) {
    response.header.tc = true;
    response.answers.clear();
    response.authorities.clear();
    response.additionals.clear();
    ++counts_.faults_truncated;
    notify_fault(query, to, "truncate");
  }
  if (fault.corrupt_rrsigs) {
    bool corrupted = false;
    for (auto* section : {&response.answers, &response.authorities}) {
      for (dns::ResourceRecord& rr : *section) {
        auto* rrsig = std::get_if<dns::RrsigRdata>(&rr.rdata);
        if (rrsig != nullptr && !rrsig->signature.empty()) {
          rrsig->signature[0] ^= 0xFF;
          corrupted = true;
        }
      }
    }
    if (corrupted) {
      ++counts_.faults_rrsig_corrupted;
      notify_fault(query, to, "rrsig-corrupt");
    }
  }

  clock_->advance_us(one_way + fault.added_latency_us);

  const std::size_t response_bytes = dns::wire_size(response);

  PacketRecord response_record;
  response_record.time_us = clock_->now_us();
  response_record.from = to;
  response_record.to = from;
  response_record.bytes = response_bytes;
  response_record.is_query = false;
  if (!query.questions.empty()) {
    response_record.has_question = true;
    response_record.qname = query.question().name;
    response_record.qtype = query.question().type;
  }
  response_record.rcode = response.header.rcode;
  response_record.rtt_us = round_trip;
  record(std::move(response_record));

  return response;
}

}  // namespace lookaside::sim
