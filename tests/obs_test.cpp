// Tests for the observability layer: event model, sinks, tracer, span
// timeline reconstruction, JSONL round-trip, metrics sink mapping, and the
// end-to-end invariants the bench drivers rely on (metric stream == leakage
// analyzer counts; capture bytes == counter bytes; hop latencies sum to the
// resolution's reported response time).
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "obs/event.h"
#include "obs/metrics_registry.h"
#include "obs/metrics_sink.h"
#include "obs/span_timeline.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/network.h"

namespace lookaside::obs {
namespace {

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

TEST(EventKindTest, NamesRoundTrip) {
  for (int i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    EventKind parsed{};
    ASSERT_TRUE(event_kind_from_name(event_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed{};
  EXPECT_FALSE(event_kind_from_name("no_such_kind", &parsed));
  EXPECT_FALSE(event_kind_from_name("", &parsed));
}

TEST(EventTest, JsonlGolden) {
  Event event;
  event.time_us = 42;
  event.span_id = 7;
  event.parent_span_id = 6;
  event.query_id = (5ULL << 32) | 9;
  event.client = 5;
  event.kind = EventKind::kUpstreamQuery;
  event.name = "example.com.";
  event.server = "tld:com";
  event.qtype = dns::RRType::kDlv;
  event.rcode = dns::RCode::kNxDomain;
  event.bytes = 53;
  event.latency_us = 80000;
  event.detail = "x";
  EXPECT_EQ(to_jsonl(event),
            "{\"time_us\":42,\"span\":7,\"parent\":6,\"query\":21474836489,"
            "\"client\":5,\"kind\":\"upstream_query\","
            "\"name\":\"example.com.\",\"server\":\"tld:com\",\"qtype\":32769,"
            "\"rcode\":3,\"bytes\":53,\"latency_us\":80000,\"detail\":\"x\"}");
}

TEST(EventTest, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(EventTest, ServerClassification) {
  EXPECT_EQ(server_class("root"), "root");
  EXPECT_EQ(server_class("tld:com"), "tld");
  EXPECT_EQ(server_class("auth:universe"), "sld");
  EXPECT_EQ(server_class("auth:example.com"), "sld");
  EXPECT_EQ(server_class("dlv:dlv.isc.org"), "dlv");
  EXPECT_EQ(server_class("arpa"), "arpa");
  EXPECT_EQ(server_class("recursive"), "recursive");
  EXPECT_EQ(server_class("stub"), "stub");
  EXPECT_EQ(server_class("mystery"), "other");
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

Event numbered_event(std::uint64_t i) {
  Event event;
  event.time_us = i;
  event.kind = EventKind::kUpstreamQuery;
  event.name = "n" + std::to_string(i) + ".";
  return event;
}

TEST(RingBufferSinkTest, BoundsMemoryAndKeepsNewest) {
  RingBufferSink ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.on_event(numbered_event(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_seen(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<Event> events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first ordering of the surviving (newest) events.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].time_us, 6 + i);
  }
}

TEST(RingBufferSinkTest, PartialFillPreservesOrder) {
  RingBufferSink ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) ring.on_event(numbered_event(i));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<Event> events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().time_us, 0u);
  EXPECT_EQ(events.back().time_us, 2u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_seen(), 0u);
}

TEST(SummarySinkTest, CountsKindsAndServers) {
  SummarySink summary;
  Event query = numbered_event(1);
  query.server = "dlv:dlv.isc.org";
  query.bytes = 50;
  summary.on_event(query);
  Event response = query;
  response.kind = EventKind::kResponse;
  response.bytes = 200;
  response.latency_us = 80000;
  summary.on_event(response);
  EXPECT_EQ(summary.count(EventKind::kUpstreamQuery), 1u);
  EXPECT_EQ(summary.count(EventKind::kResponse), 1u);
  EXPECT_EQ(summary.count(EventKind::kValidation), 0u);
  std::ostringstream out;
  summary.print(out);
  EXPECT_NE(out.str().find("dlv"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, StampsClockAndSpan) {
  sim::SimClock clock;
  Tracer tracer;
  auto ring = std::make_shared<RingBufferSink>(16);
  tracer.add_sink(ring);
  tracer.attach_clock(clock);

  clock.advance_us(500);
  const std::uint64_t span = tracer.begin_span();
  EXPECT_EQ(tracer.current_span(), span);
  tracer.emit(Event{});  // zero time/span: stamped by the tracer
  tracer.end_span(span);
  EXPECT_EQ(tracer.current_span(), 0u);
  tracer.emit(Event{});  // outside any span

  const std::vector<Event> events = ring->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time_us, 500u);
  EXPECT_EQ(events[0].span_id, span);
  EXPECT_EQ(events[1].span_id, 0u);
  EXPECT_EQ(tracer.events_emitted(), 2u);
}

TEST(TracerTest, NoSinksMeansNoWork) {
  Tracer tracer;
  EXPECT_FALSE(tracer.has_sinks());
  tracer.emit(Event{});
  EXPECT_EQ(tracer.events_emitted(), 0u);
}

TEST(TracerTest, SpansNestLikeAStack) {
  Tracer tracer;
  tracer.add_sink(std::make_shared<RingBufferSink>(4));
  const std::uint64_t outer = tracer.begin_span();
  const std::uint64_t inner = tracer.begin_span();
  EXPECT_EQ(tracer.current_span(), inner);
  tracer.end_span(inner);
  EXPECT_EQ(tracer.current_span(), outer);
  tracer.end_span(outer);
  EXPECT_EQ(tracer.current_span(), 0u);
}

TEST(TracerTest, StampsParentSpanAndQueryContext) {
  Tracer tracer;
  auto ring = std::make_shared<RingBufferSink>(8);
  tracer.add_sink(ring);

  tracer.push_query(/*query_id=*/0x42, /*client=*/3);
  EXPECT_TRUE(tracer.in_query());
  EXPECT_EQ(tracer.current_query_id(), 0x42u);
  const std::uint64_t outer = tracer.begin_span();
  const std::uint64_t inner = tracer.begin_span();
  tracer.emit(Event{});  // all-zero context: stamped from the stacks
  tracer.end_span(inner);
  tracer.end_span(outer);
  tracer.pop_query();
  EXPECT_FALSE(tracer.in_query());
  tracer.emit(Event{});  // outside any query: untagged

  const std::vector<Event> events = ring->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].span_id, inner);
  EXPECT_EQ(events[0].parent_span_id, outer);
  EXPECT_EQ(events[0].query_id, 0x42u);
  EXPECT_EQ(events[0].client, 3u);
  EXPECT_EQ(events[1].parent_span_id, 0u);
  EXPECT_EQ(events[1].query_id, 0u);
  EXPECT_EQ(events[1].client, 0u);
}

TEST(JsonlFileSinkTest, WriteFailuresAreCountedAsDropped) {
  // Events emitted after the stream dies must be accounted, not silently
  // lost: ObsSession surfaces this as obs_trace_dropped{sink="jsonl"}.
  JsonlFileSink sink("/nonexistent-dir/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.on_event(Event{});
  sink.on_event(Event{});
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.events_written(), 0u);
}

// ---------------------------------------------------------------------------
// Network bridge (satellite: single accounting path)
// ---------------------------------------------------------------------------

class EchoServer : public sim::Endpoint {
 public:
  explicit EchoServer(std::string id) : id_(std::move(id)) {}
  [[nodiscard]] std::string endpoint_id() const override { return id_; }
  [[nodiscard]] dns::Message handle_query(
      const dns::Message& query) override {
    return dns::Message::make_response(query);
  }

 private:
  std::string id_;
};

dns::Message query_for(const std::string& name) {
  return dns::Message::make_query(1, dns::Name::parse(name), dns::RRType::kA,
                                  false, false);
}

TEST(NetworkBridgeTest, ConvertsUpstreamExchangesOnly) {
  sim::SimClock clock;
  sim::Network network(clock);
  Tracer tracer;
  auto ring = std::make_shared<RingBufferSink>(16);
  tracer.add_sink(ring);
  tracer.attach_clock(clock);
  tracer.attach_network(network);

  EchoServer root("root");
  EchoServer recursive("recursive");
  // Stub-side exchange: must not appear in the trace.
  (void)network.exchange("stub", recursive, query_for("example.com"));
  // Upstream exchange: one query + one response event.
  (void)network.exchange("recursive", root, query_for("example.com"));

  const std::vector<Event> events = ring->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kUpstreamQuery);
  EXPECT_EQ(events[0].server, "root");
  EXPECT_EQ(events[0].name, "example.com.");
  EXPECT_GT(events[0].bytes, 0u);
  EXPECT_EQ(events[1].kind, EventKind::kResponse);
  EXPECT_EQ(events[1].server, "root");
  // The latency model gives root a 30 ms one-way hop.
  EXPECT_EQ(events[1].latency_us, 60'000u);
  EXPECT_EQ(events[1].time_us, events[0].time_us + events[1].latency_us);
}

TEST(NetworkBridgeTest, ObserverAndCaptureAgreeOnBytes) {
  // Regression for the unified Network::record() path: the byte totals
  // derived from the observer stream, the stored capture and the counters
  // must be identical.
  sim::SimClock clock;
  sim::Network network(clock);
  network.set_capture_enabled(true);
  std::uint64_t observed_bytes = 0;
  network.add_observer([&observed_bytes](const sim::PacketRecord& packet) {
    observed_bytes += packet.bytes;
  });

  EchoServer root("root");
  EchoServer tld("tld:com");
  (void)network.exchange("recursive", root, query_for("example.com"));
  (void)network.exchange("recursive", tld, query_for("www.example.com"));

  std::uint64_t captured_bytes = 0;
  for (const sim::PacketRecord& packet : network.capture()) {
    captured_bytes += packet.bytes;
  }
  EXPECT_EQ(network.counters().value("bytes.total"), observed_bytes);
  EXPECT_EQ(captured_bytes, observed_bytes);
  EXPECT_GT(observed_bytes, 0u);
}

// ---------------------------------------------------------------------------
// JSONL round trip
// ---------------------------------------------------------------------------

TEST(TraceReaderTest, ParsesWhatToJsonlWrites) {
  Event original;
  original.time_us = 123456;
  original.span_id = 9;
  original.kind = EventKind::kDlvObservation;
  original.name = "leaky.com.";
  original.server = "dlv:dlv.isc.org";
  original.qtype = dns::RRType::kDlv;
  original.rcode = dns::RCode::kNxDomain;
  original.bytes = 99;
  original.latency_us = 80000;
  original.detail = "2";

  Event parsed;
  ASSERT_TRUE(parse_jsonl_event(to_jsonl(original), &parsed));
  EXPECT_EQ(parsed.time_us, original.time_us);
  EXPECT_EQ(parsed.span_id, original.span_id);
  EXPECT_EQ(parsed.kind, original.kind);
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.server, original.server);
  EXPECT_EQ(parsed.qtype, original.qtype);
  EXPECT_EQ(parsed.rcode, original.rcode);
  EXPECT_EQ(parsed.bytes, original.bytes);
  EXPECT_EQ(parsed.latency_us, original.latency_us);
  EXPECT_EQ(parsed.detail, original.detail);
}

TEST(TraceReaderTest, EscapedStringsRoundTrip) {
  Event original;
  original.kind = EventKind::kValidation;
  original.name = "we\"ird\\name\n.";
  Event parsed;
  ASSERT_TRUE(parse_jsonl_event(to_jsonl(original), &parsed));
  EXPECT_EQ(parsed.name, original.name);
}

TEST(TraceReaderTest, CountsMalformedLines) {
  std::istringstream in(
      to_jsonl(numbered_event(1)) + "\n" +
      "not json at all\n" +
      "{\"kind\":\"unknown_kind\"}\n" +
      "\n" +  // blank lines are skipped, not malformed
      to_jsonl(numbered_event(2)) + "\n");
  TraceReadStats stats;
  const std::vector<Event> events = read_jsonl_events(in, &stats);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(stats.malformed, 2u);
}

TEST(TraceReaderTest, TruncatedTrailingRecordIsSkippedAndCounted) {
  // A crashed or killed writer leaves the file's last record cut mid-JSON
  // with no trailing newline. The reader must keep every complete record,
  // count the fragment as malformed, and flag the truncation.
  const std::string full = to_jsonl(numbered_event(1)) + "\n" +
                           to_jsonl(numbered_event(2)) + "\n";
  const std::string tail = to_jsonl(numbered_event(3));
  std::istringstream in(full + tail.substr(0, tail.size() / 2));

  TraceReadStats stats;
  const std::vector<Event> events = read_jsonl_events(in, &stats);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_TRUE(stats.truncated_tail);
}

TEST(TraceReaderTest, CompleteFinalLineWithoutNewlineIsNotTruncation) {
  // A final record that parses is fine even if the newline is missing —
  // truncation means the *record* is cut, not the file.
  std::istringstream in(to_jsonl(numbered_event(1)) + "\n" +
                        to_jsonl(numbered_event(2)));
  TraceReadStats stats;
  const std::vector<Event> events = read_jsonl_events(in, &stats);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_FALSE(stats.truncated_tail);
}

TEST(TraceReaderTest, TraceContextFieldsRoundTrip) {
  Event original = numbered_event(7);
  original.span_id = 40;
  original.parent_span_id = 39;
  original.query_id = (5ULL << 32) | 11;
  original.client = 5;
  Event parsed;
  ASSERT_TRUE(parse_jsonl_event(to_jsonl(original), &parsed));
  EXPECT_EQ(parsed.parent_span_id, original.parent_span_id);
  EXPECT_EQ(parsed.query_id, original.query_id);
  EXPECT_EQ(parsed.client, original.client);
}

// ---------------------------------------------------------------------------
// Span timeline
// ---------------------------------------------------------------------------

std::vector<Event> synthetic_resolution() {
  std::vector<Event> events;
  Event stub;
  stub.time_us = 1000;
  stub.span_id = 1;
  stub.kind = EventKind::kStubQuery;
  stub.name = "example.com.";
  events.push_back(stub);

  const struct {
    const char* server;
    std::uint64_t rtt;
  } hops[] = {{"root", 60000}, {"tld:com", 50000}, {"dlv:dlv.isc.org", 80000}};
  std::uint64_t now = 1000;
  for (const auto& hop : hops) {
    Event query;
    query.time_us = now;
    query.span_id = 1;
    query.kind = EventKind::kUpstreamQuery;
    query.name = "example.com.";
    query.server = hop.server;
    query.bytes = 40;
    events.push_back(query);
    now += hop.rtt;
    Event response = query;
    response.kind = EventKind::kResponse;
    response.time_us = now;
    response.bytes = 150;
    response.latency_us = hop.rtt;
    events.push_back(response);
  }

  Event validation;
  validation.time_us = now;
  validation.span_id = 1;
  validation.kind = EventKind::kValidation;
  validation.name = "example.com.";
  validation.detail = "insecure";
  events.push_back(validation);

  Event done;
  done.time_us = now;
  done.span_id = 1;
  done.kind = EventKind::kResponse;
  done.name = "example.com.";
  done.server = "recursive";
  done.latency_us = now - 1000;
  done.detail = "insecure";
  events.push_back(done);
  return events;
}

TEST(SpanTimelineTest, ReconstructsHopsAndCloses) {
  const SpanTimeline timeline =
      SpanTimeline::from_events(synthetic_resolution());
  ASSERT_EQ(timeline.spans().size(), 1u);
  const ResolutionSpan& span = timeline.spans().front();
  EXPECT_TRUE(span.closed);
  EXPECT_EQ(span.name, "example.com.");
  EXPECT_EQ(span.status, "insecure");
  ASSERT_EQ(span.hops.size(), 3u);
  EXPECT_EQ(span.hops[0].server, "root");
  EXPECT_EQ(span.hops[2].server, "dlv:dlv.isc.org");
  EXPECT_TRUE(span.hops[2].answered);
  EXPECT_EQ(span.hops[0].query_bytes, 40u);
  EXPECT_EQ(span.hops[0].response_bytes, 150u);
}

TEST(SpanTimelineTest, HopLatenciesSumToReported) {
  const SpanTimeline timeline =
      SpanTimeline::from_events(synthetic_resolution());
  const ResolutionSpan& span = timeline.spans().front();
  EXPECT_EQ(span.hop_latency_total_us(), 190'000u);
  EXPECT_EQ(span.reported_latency_us, 190'000u);
  const auto phases = span.phase_durations_us();
  EXPECT_EQ(phases.at("root"), 60'000u);
  EXPECT_EQ(phases.at("tld"), 50'000u);
  EXPECT_EQ(phases.at("dlv"), 80'000u);
}

TEST(SpanTimelineTest, FindByNameToleratesMissingDot) {
  const SpanTimeline timeline =
      SpanTimeline::from_events(synthetic_resolution());
  EXPECT_EQ(timeline.find_by_name("example.com").size(), 1u);
  EXPECT_EQ(timeline.find_by_name("example.com.").size(), 1u);
  EXPECT_TRUE(timeline.find_by_name("other.com").empty());
}

TEST(SpanTimelineTest, PrintReportsConsistency) {
  const SpanTimeline timeline =
      SpanTimeline::from_events(synthetic_resolution());
  std::ostringstream out;
  SpanTimeline::print(out, timeline.spans().front());
  EXPECT_NE(out.str().find("[consistent]"), std::string::npos);
  EXPECT_EQ(out.str().find("[MISMATCH]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry export goldens
// ---------------------------------------------------------------------------

TEST(MetricsRegistryExportTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.add("upstream_queries", {{"server", "dlv"}}, 791);
  registry.add("upstream_queries", {{"server", "root"}}, 31);
  registry.add("resolutions", {}, 1000);
  registry.add("dest.tld-com.queries", {}, 7);  // exported sanitized
  EXPECT_EQ(registry.prometheus_text(),
            "# TYPE dest_tld_com_queries counter\n"
            "dest_tld_com_queries 7\n"
            "# TYPE resolutions counter\n"
            "resolutions 1000\n"
            "# TYPE upstream_queries counter\n"
            "upstream_queries{server=\"dlv\"} 791\n"
            "upstream_queries{server=\"root\"} 31\n");
}

TEST(MetricsRegistryExportTest, PrometheusSummaryFromHistogram) {
  MetricsRegistry registry;
  for (int i = 1; i <= 4; ++i) {
    registry.observe("latency_seconds", {{"server", "dlv"}}, i * 0.1);
  }
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE latency_seconds summary"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds{server=\"dlv\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum{server=\"dlv\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count{server=\"dlv\"} 4\n"),
            std::string::npos);
}

TEST(MetricsRegistryExportTest, JsonGolden) {
  MetricsRegistry registry;
  registry.add("dlv_observations", {{"case", "2"}}, 688);
  EXPECT_EQ(registry.json(),
            "{\"counters\":[{\"name\":\"dlv_observations\","
            "\"labels\":{\"case\":\"2\"},\"value\":688}],"
            "\"histograms\":[]}");
}

TEST(MetricsRegistryExportTest, CsvHasHeaderAndRows) {
  MetricsRegistry registry;
  registry.add("queries", {{"server", "root"}}, 5);
  std::ostringstream out;
  registry.write_csv(out);
  EXPECT_NE(out.str().find("name,labels,value"), std::string::npos);
  EXPECT_NE(out.str().find("5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics sink mapping
// ---------------------------------------------------------------------------

TEST(MetricsSinkTest, MapsEventKindsToInstruments) {
  MetricsRegistry registry;
  MetricsSink sink(registry);

  Event stub;
  stub.kind = EventKind::kStubQuery;
  stub.qtype = dns::RRType::kA;
  sink.on_event(stub);

  Event upstream;
  upstream.kind = EventKind::kUpstreamQuery;
  upstream.server = "dlv:dlv.isc.org";
  upstream.name = "example.com.dlv.isc.org.";
  upstream.bytes = 53;
  sink.on_event(upstream);

  // A DNSKEY fetch for the registry apex is infrastructure, not a DLV
  // observation candidate: it lands in "dlv-apex".
  Event apex = upstream;
  apex.name = "dlv.isc.org.";
  sink.on_event(apex);

  Event observation;
  observation.kind = EventKind::kDlvObservation;
  observation.detail = "2";
  sink.on_event(observation);

  Event done;
  done.kind = EventKind::kResponse;
  done.server = "recursive";
  done.detail = "insecure";
  done.latency_us = 190000;
  sink.on_event(done);

  EXPECT_EQ(registry.value("resolutions", {{"qtype", "A"}}), 1u);
  EXPECT_EQ(registry.value("upstream_queries", {{"server", "dlv"}}), 1u);
  EXPECT_EQ(registry.value("upstream_queries", {{"server", "dlv-apex"}}), 1u);
  EXPECT_EQ(registry.value("dlv_observations", {{"case", "2"}}), 1u);
  EXPECT_EQ(registry.value("resolutions_completed",
                           {{"status", "insecure"}, {"rcode", "NOERROR"}}),
            1u);
  const metrics::Histogram* latency =
      registry.histogram("resolution_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
}

// ---------------------------------------------------------------------------
// End to end through a universe experiment
// ---------------------------------------------------------------------------

TEST(ObsEndToEndTest, MetricStreamMatchesLeakageAnalyzer) {
  core::UniverseExperiment::Options options;
  options.universe_size = 2'000;
  MetricsRegistry registry;
  Tracer tracer;
  auto metrics_sink = std::make_shared<MetricsSink>(registry);
  auto ring = std::make_shared<RingBufferSink>(1 << 14);
  tracer.add_sink(metrics_sink);
  tracer.add_sink(ring);
  options.tracer = &tracer;

  core::UniverseExperiment experiment(options);
  const core::LeakageReport report = experiment.run_topn(40);

  // The acceptance invariant: the metric stream's per-server counter equals
  // the leakage analyzer's count, measured through independent paths.
  EXPECT_EQ(registry.value("upstream_queries", {{"server", "dlv"}}),
            report.dlv_queries);
  EXPECT_EQ(registry.value("dlv_observations", {{"case", "1"}}),
            report.case1_queries);
  EXPECT_EQ(registry.total("dlv_observations"), report.dlv_queries);
  EXPECT_GT(report.dlv_queries, 0u);

  // Every resolution produced exactly one validation and one completion.
  EXPECT_EQ(registry.total("validations"),
            registry.total("resolutions_completed"));
  EXPECT_EQ(registry.total("resolutions"),
            registry.total("resolutions_completed"));
}

TEST(ObsEndToEndTest, SpanHopLatenciesSumToResponseTime) {
  core::UniverseExperiment::Options options;
  options.universe_size = 2'000;
  Tracer tracer;
  auto ring = std::make_shared<RingBufferSink>(1 << 14);
  tracer.add_sink(ring);
  options.tracer = &tracer;

  core::UniverseExperiment experiment(options);
  (void)experiment.run_topn(25);

  const SpanTimeline timeline = SpanTimeline::from_events(ring->events());
  ASSERT_GT(timeline.spans().size(), 0u);
  std::size_t closed = 0;
  for (const ResolutionSpan& span : timeline.spans()) {
    if (!span.closed) continue;
    ++closed;
    // The simulated clock only advances inside network exchanges, so the
    // hop round trips must sum exactly to the reported response time.
    EXPECT_EQ(span.hop_latency_total_us(), span.reported_latency_us)
        << "span " << span.span_id << " (" << span.name << ")";
    EXPECT_EQ(span.end_us - span.start_us, span.reported_latency_us);
  }
  EXPECT_GT(closed, 0u);
}

TEST(ObsEndToEndTest, TraceBytesMatchNetworkCounters) {
  core::UniverseExperiment::Options options;
  options.universe_size = 2'000;
  MetricsRegistry registry;
  Tracer tracer;
  auto metrics_sink = std::make_shared<MetricsSink>(registry);
  tracer.add_sink(metrics_sink);
  options.tracer = &tracer;

  core::UniverseExperiment experiment(options);
  experiment.network().set_capture_enabled(true);
  (void)experiment.run_topn(20);

  // The trace covers every packet except the stub<->recursive leg (the
  // bridge deliberately skips stub-side packets), so the traced byte totals
  // are bounded by — and track — the network's own counters.
  const metrics::CounterSet& counters = experiment.network().counters();
  std::uint64_t traced_query_bytes = 0;
  std::uint64_t traced_response_bytes = 0;
  for (const char* cls :
       {"root", "tld", "sld", "dlv", "dlv-apex", "arpa", "other"}) {
    traced_query_bytes +=
        registry.value("upstream_bytes", {{"server", cls}, {"dir", "query"}});
    traced_response_bytes += registry.value(
        "upstream_bytes", {{"server", cls}, {"dir", "response"}});
  }
  EXPECT_GT(traced_query_bytes, 0u);
  EXPECT_LT(traced_query_bytes, counters.value("bytes.query"));
  EXPECT_LT(traced_response_bytes, counters.value("bytes.response"));
  // Upstream query count matches the capture of the same packets: every
  // destination except the resolver itself was queried by it.
  std::uint64_t upstream_queries = 0;
  for (const sim::PacketRecord& packet : experiment.network().capture()) {
    if (packet.is_query && packet.to != "recursive") ++upstream_queries;
  }
  EXPECT_GT(upstream_queries, 0u);
  EXPECT_EQ(registry.total("upstream_queries"), upstream_queries);
}

}  // namespace
}  // namespace lookaside::obs
