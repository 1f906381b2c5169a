// Tests for the core analysis layer: leakage classification, the secured-45
// experiment (Table 3), overhead measurement, DITL aggregation, the
// dictionary attack, and the survey constants.
#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "core/ditl_overhead.h"
#include "core/experiment.h"
#include "core/leakage.h"
#include "core/overhead.h"
#include "core/survey.h"
#include "workload/secured45.h"

namespace lookaside::core {
namespace {

UniverseExperiment::Options small_options(std::uint64_t size = 3'000) {
  UniverseExperiment::Options options;
  options.universe_size = size;
  options.stub.ptr_probability = 0.02;
  return options;
}

TEST(LeakageAnalyzerTest, ClassifiesCase1AndCase2) {
  dlv::DlvRegistry registry(dlv::DlvRegistry::Options{});
  LeakageAnalyzer analyzer(registry);
  registry.deposit(dns::Name::parse("deposited.com"),
                   dns::DsRdata{1, 8, 2, dns::Bytes(32, 1)});

  auto query = [&](const std::string& name) {
    (void)registry.handle_query(dns::Message::make_query(
        1, dns::Name::parse(name + ".dlv.isc.org"), dns::RRType::kDlv, false,
        true));
  };
  query("deposited.com");
  query("leaky.com");
  query("leaky.com");   // repeat query, same domain
  query("other.net");

  const LeakageReport& report = analyzer.report();
  EXPECT_EQ(report.dlv_queries, 4u);
  EXPECT_EQ(report.case1_queries, 1u);
  EXPECT_EQ(report.case2_queries, 3u);
  EXPECT_EQ(report.distinct_case1_domains, 1u);
  EXPECT_EQ(report.distinct_leaked_domains, 2u);
  EXPECT_NEAR(report.utility_fraction(), 0.25, 1e-9);
}

TEST(LeakageAnalyzerTest, ResetClearsState) {
  dlv::DlvRegistry registry(dlv::DlvRegistry::Options{});
  LeakageAnalyzer analyzer(registry);
  (void)registry.handle_query(dns::Message::make_query(
      1, dns::Name::parse("x.com.dlv.isc.org"), dns::RRType::kDlv, false,
      true));
  EXPECT_EQ(analyzer.report().dlv_queries, 1u);
  analyzer.reset();
  EXPECT_EQ(analyzer.report().dlv_queries, 0u);
  EXPECT_EQ(analyzer.report().distinct_leaked_domains, 0u);
}

TEST(UniverseExperimentTest, TopNLeaksMajority) {
  UniverseExperiment experiment(small_options());
  const LeakageReport report = experiment.run_topn(60);
  EXPECT_EQ(report.domains_visited, 60u);
  EXPECT_GT(report.distinct_leaked_domains, 30u);
  EXPECT_LE(report.distinct_leaked_domains, 60u);
  const PhaseMetrics metrics = experiment.metrics();
  EXPECT_GT(metrics.response_seconds, 1.0);
  EXPECT_GT(metrics.megabytes, 0.01);
  EXPECT_GT(metrics.queries, 120u);
}

TEST(UniverseExperimentTest, ShuffleChangesWhoLeaksNotScale) {
  const std::uint64_t n = 80;
  UniverseExperiment ordered(small_options());
  const auto ordered_report = ordered.run_topn(n);

  UniverseExperiment shuffled(small_options());
  const auto shuffled_report = shuffled.run_topn_shuffled(n, 99);

  EXPECT_EQ(shuffled_report.domains_visited, n);
  // Same scale (within a modest band), possibly different counts (§5.1).
  const auto a = ordered_report.distinct_leaked_domains;
  const auto b = shuffled_report.distinct_leaked_domains;
  EXPECT_GT(b, a / 2);
  EXPECT_LT(b, a * 2 + 10);
}

TEST(UniverseExperimentTest, TldApexNoDataValidatesAsSecure) {
  // A type the TLD apex does not hold gets a NODATA whose signed apex NSEC
  // lists the apex's types; without that NSEC the denial is bogus.
  UniverseExperiment::Options options = small_options(1'000);
  options.resolver_config = resolver::ResolverConfig::bind_yum();
  UniverseExperiment experiment(options);
  const resolver::ResolveResult result = experiment.resolver().resolve(
      {dns::Name::parse("de"), dns::RRType::kTxt});
  EXPECT_EQ(result.response.header.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(result.response.answers.empty());
  EXPECT_EQ(result.status, resolver::ValidationStatus::kSecure);
}

TEST(SecuredExperimentTest, Table3Reproduced) {
  // yum (anchors present): only islands touch DLV; everything validates.
  const SecuredRunResult yum =
      run_secured_45(resolver::ResolverConfig::bind_yum(), "yum");
  EXPECT_EQ(yum.domains, 45u);
  EXPECT_EQ(yum.sent_to_dlv, workload::kSecuredIslandCount);
  EXPECT_EQ(yum.validated_secure, 45u);
  EXPECT_EQ(yum.validated_via_dlv, workload::kSecuredIslandCount);

  // apt-get default: DLV disabled -> zero DLV exposure ("No").
  const SecuredRunResult apt =
      run_secured_45(resolver::ResolverConfig::bind_apt_get(), "apt-get");
  EXPECT_EQ(apt.sent_to_dlv, 0u);

  // apt-get† (anchor missing): all 45 secured domains leak ("Yes").
  const SecuredRunResult dagger = run_secured_45(
      resolver::ResolverConfig::bind_apt_get_dagger(), "apt-get+");
  EXPECT_EQ(dagger.sent_to_dlv, 45u);

  // manual (anchor missing): all 45 leak ("Yes").
  const SecuredRunResult manual =
      run_secured_45(resolver::ResolverConfig::bind_manual(), "manual");
  EXPECT_EQ(manual.sent_to_dlv, 45u);

  // Unbound correct: like yum — only the islands.
  const SecuredRunResult unbound =
      run_secured_45(resolver::ResolverConfig::unbound_correct(), "unbound");
  EXPECT_EQ(unbound.sent_to_dlv, workload::kSecuredIslandCount);
}

TEST(OverheadTest, TxtRemedyCostsMoreThanBaseline) {
  const OverheadRow row = measure_overhead(50, RemedyMode::kTxt,
                                           small_options());
  EXPECT_GT(row.with_remedy.queries, row.baseline.queries);
  EXPECT_GT(row.with_remedy.response_seconds, row.baseline.response_seconds);
  EXPECT_GT(row.with_remedy.megabytes, row.baseline.megabytes);
  EXPECT_GT(row.query_ratio(), 0.0);
  EXPECT_LT(row.query_ratio(), 0.6);
  EXPECT_GT(row.time_ratio(), 0.0);
}

TEST(OverheadTest, ZBitRemedyIsEssentiallyFree) {
  const OverheadRow row = measure_overhead(50, RemedyMode::kZBit,
                                           small_options());
  // The Z bit rides existing responses; it *suppresses* DLV queries, so the
  // remedy side can only be cheaper or equal.
  EXPECT_LE(row.with_remedy.queries, row.baseline.queries);
  EXPECT_LE(row.with_remedy.megabytes, row.baseline.megabytes + 0.001);
}

TEST(OverheadTest, QueryTypeCountsExposeTable4Mix) {
  UniverseExperiment experiment(small_options());
  (void)experiment.run_topn(100);
  const auto counts = query_type_counts(experiment.network());
  EXPECT_GT(counts.at("A"), counts.at("AAAA"));
  EXPECT_GT(counts.at("AAAA"), 0u);
  EXPECT_GT(counts.at("DS"), 0u);
  EXPECT_GT(counts.at("DNSKEY"), 0u);
  EXPECT_GT(counts.count("DLV"), 0u);
}

TEST(DitlOverheadTest, SeriesAccumulatesMonotonically) {
  PerQueryCost cost;
  cost.baseline_bytes = 300.0;
  cost.txt_extra_bytes = 25.0;
  workload::DitlOptions trace;
  trace.minutes = 60;
  trace.total_queries = 10'000'000;
  const auto series = ditl_overhead_series(trace, cost);
  ASSERT_EQ(series.size(), 60u);
  EXPECT_EQ(series.back().cumulative_queries, trace.total_queries);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].cumulative_overhead_mb,
              series[i - 1].cumulative_overhead_mb);
    EXPECT_GT(series[i].cumulative_baseline_mb,
              series[i].cumulative_overhead_mb);
  }
  // Overhead magnitude: queries * extra bytes.
  EXPECT_NEAR(series.back().cumulative_overhead_mb,
              10'000'000 * 25.0 / (1024.0 * 1024.0), 1.0);
}

TEST(DitlOverheadTest, CalibrationProducesPositiveCosts) {
  const PerQueryCost cost = calibrate_per_query_cost(40, small_options());
  EXPECT_GT(cost.baseline_bytes, 50.0);
  EXPECT_GT(cost.txt_extra_bytes, 0.0);
  EXPECT_LT(cost.txt_extra_bytes, cost.baseline_bytes);
}

TEST(DictionaryAttackTest, RecoversOnlyDictionaryMembers) {
  const dns::Name apex = dns::Name::parse("dlv.isc.org");
  workload::UniverseOptions universe_options;
  universe_options.size = 1'000;
  const workload::Universe universe(universe_options);

  // Observations: hashed names of ranks 1..100.
  std::vector<dns::Name> observed;
  for (std::uint64_t rank = 1; rank <= 100; ++rank) {
    observed.push_back(
        dlv::hashed_dlv_name(universe.domain_at(rank), apex));
  }

  // Attacker knows ranks 1..50 only.
  DictionaryAttacker half(apex, universe_dictionary(universe, 50, false));
  const auto half_result = half.attack(observed);
  EXPECT_EQ(half_result.recovered, 50u);
  EXPECT_EQ(half_result.observed_hashes, 100u);
  EXPECT_NEAR(half_result.recovery_rate(), 0.5, 1e-9);
  EXPECT_EQ(half_result.hash_computations, 50u);

  // Attacker with a disjoint dictionary recovers nothing.
  std::vector<dns::Name> disjoint;
  for (std::uint64_t rank = 500; rank < 550; ++rank) {
    disjoint.push_back(universe.domain_at(rank));
  }
  DictionaryAttacker miss(apex, disjoint);
  EXPECT_EQ(miss.attack(observed).recovered, 0u);
}

TEST(DictionaryAttackTest, DnssecOnlyDictionaryShrinksWork) {
  workload::UniverseOptions universe_options;
  universe_options.size = 5'000;
  const workload::Universe universe(universe_options);
  const auto all = universe_dictionary(universe, 5'000, false);
  const auto dnssec = universe_dictionary(universe, 5'000, true);
  EXPECT_LT(dnssec.size(), all.size() / 3);
  EXPECT_GT(dnssec.size(), 0u);
}

TEST(SurveyTest, PaperNumbers) {
  EXPECT_EQ(survey_total_respondents(), 56u);
  const auto practice = survey_configuration_practice();
  ASSERT_EQ(practice.size(), 3u);
  EXPECT_EQ(practice[0].respondents, 17u);
  EXPECT_NEAR(practice[0].percent, 30.35, 0.1);
  EXPECT_EQ(practice[1].respondents, 5u);
  EXPECT_NEAR(practice[1].percent, 8.9, 0.1);
  EXPECT_EQ(practice[2].respondents, 34u);
  EXPECT_NEAR(practice[2].percent, 60.7, 0.1);
  const auto anchors = survey_dlv_anchor_use();
  EXPECT_EQ(anchors[0].respondents, 35u);
  EXPECT_NEAR(anchors[0].percent, 62.5, 0.1);
}

TEST(RemedyNameTest, AllNamed) {
  EXPECT_STREQ(remedy_name(RemedyMode::kNone), "dlv-baseline");
  EXPECT_STREQ(remedy_name(RemedyMode::kTxt), "txt-signaling");
  EXPECT_STREQ(remedy_name(RemedyMode::kZBit), "z-bit");
  EXPECT_STREQ(remedy_name(RemedyMode::kHashed), "hashed-dlv");
}

}  // namespace
}  // namespace lookaside::core
