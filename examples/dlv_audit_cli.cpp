// dlv_audit_cli — a command-line auditor built on the public API.
//
// Three subcommands:
//   config <file>           audit a named.conf/unbound.conf for the paper's
//                           misconfigurations (auto-detects the format)
//   simulate [options]      run a browsing workload and report leakage
//   zone <file>             parse a master file and print what a DLV
//                           validator would learn from its denial ranges
//
//   ./build/examples/dlv_audit_cli simulate --preset yum --domains 200
//   ./build/examples/dlv_audit_cli simulate --preset manual --remedy txt
//   ./build/examples/dlv_audit_cli config /etc/bind/named.conf.options
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "config/conf_file.h"
#include "config/install_matrix.h"
#include "core/experiment.h"
#include "metrics/table.h"
#include "zone/zonefile.h"

namespace {

using namespace lookaside;

int usage() {
  std::cout <<
      R"(usage: dlv_audit_cli <command> [options]

commands:
  config <file>        audit a resolver configuration file
  simulate [options]   simulate browsing and measure DLV leakage
      --preset NAME    apt-get | apt-get+ | yum | manual | manual-correct |
                       unbound | unbound-correct       (default: yum)
      --domains N      how many popular domains to visit (default: 200)
      --remedy NAME    none | txt | zbit | hash        (default: none)
      --seed N         universe seed                    (default: 7)
  zone <file>          parse a master file, show DLV-relevant structure
)";
  return 2;
}

resolver::ResolverConfig preset_config(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "apt-get") return resolver::ResolverConfig::bind_apt_get();
  if (name == "apt-get+") return resolver::ResolverConfig::bind_apt_get_dagger();
  if (name == "yum") return resolver::ResolverConfig::bind_yum();
  if (name == "manual") return resolver::ResolverConfig::bind_manual();
  if (name == "manual-correct") {
    return resolver::ResolverConfig::bind_manual_correct();
  }
  if (name == "unbound") return resolver::ResolverConfig::unbound_package();
  if (name == "unbound-correct") {
    return resolver::ResolverConfig::unbound_correct();
  }
  *ok = false;
  return {};
}

int audit_config(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  // Auto-detect: unbound files use "key: value" lines, BIND uses braces.
  const bool looks_unbound = text.find("server:") != std::string::npos ||
                             text.find("anchor-file:") != std::string::npos;
  const auto parsed = looks_unbound ? config::parse_unbound_conf(text)
                                    : config::parse_bind_conf(text);
  if (!parsed.has_value()) {
    std::cerr << "syntax error in " << path << "\n";
    return 1;
  }
  const resolver::ResolverConfig& cfg = parsed->config;
  std::cout << "parsed " << (looks_unbound ? "unbound" : "BIND")
            << " configuration: " << cfg.summary() << "\n\n";
  for (const std::string& warning : parsed->warnings) {
    std::cout << "  warning: " << warning << "\n";
  }
  if (!looks_unbound) {
    for (const auto& issue : config::check_arm_compliance(cfg)) {
      std::cout << "  ARM deviation: " << issue.option << " is '"
                << issue.shipped << "', manual documents '" << issue.documented
                << "'\n";
    }
  }
  std::cout << "\nverdict: ";
  if (!cfg.dlv_enabled()) {
    std::cout << "no DLV traffic will be generated.\n";
  } else if (!cfg.root_anchor_available()) {
    std::cout << "SEVERE - DLV enabled without a usable root trust anchor:\n"
                 "every query (even DNSSEC-secured domains) will be sent to\n"
                 "the DLV server (paper Table 3, apt-get+/manual row).\n";
  } else {
    std::cout << "DLV enabled: unsigned domains will leak to the DLV server\n"
                 "as Case-2 queries (paper Sec. 5.1).\n";
  }
  return 0;
}

int simulate(int argc, char** argv) {
  std::string preset = "yum";
  std::uint64_t domains = 200;
  std::string remedy = "none";
  std::uint64_t seed = 7;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--preset") preset = next();
    else if (arg == "--domains") domains = std::stoull(next());
    else if (arg == "--remedy") remedy = next();
    else if (arg == "--seed") seed = std::stoull(next());
    else return usage();
  }

  bool ok = false;
  core::UniverseExperiment::Options options;
  options.resolver_config = preset_config(preset, &ok);
  if (!ok) return usage();
  options.seed = seed;
  if (remedy == "txt") options.remedy = core::RemedyMode::kTxt;
  else if (remedy == "zbit") options.remedy = core::RemedyMode::kZBit;
  else if (remedy == "hash") options.remedy = core::RemedyMode::kHashed;
  else if (remedy != "none") return usage();

  std::cout << "simulating " << domains << " domain visits, preset=" << preset
            << ", remedy=" << remedy << ", seed=" << seed << " ...\n\n";
  core::UniverseExperiment experiment(options);
  const core::LeakageReport report = experiment.run_topn(domains);
  const core::PhaseMetrics metrics = experiment.metrics();

  metrics::Table table({"Metric", "Value"});
  table.row().cell("domains visited").cell(report.domains_visited);
  table.row().cell("DLV queries observed").cell(report.dlv_queries);
  table.row().cell("Case-1 (record deposited)").cell(report.case1_queries);
  table.row().cell("Case-2 leaked domains").cell(report.distinct_leaked_domains);
  table.row().cell("leak proportion").cell(
      metrics::Table::fixed(report.leaked_proportion() * 100, 2) + "%");
  table.row().cell("response time (s)").cell(metrics.response_seconds, 2);
  table.row().cell("traffic (MB)").cell(metrics.megabytes, 2);
  table.row().cell("queries issued").cell(metrics.queries);
  table.print(std::cout);
  return 0;
}

int audit_zone(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const zone::ZoneFileResult result = zone::parse_zone_file(buffer.str());
  for (const auto& error : result.errors) {
    std::cout << path << ":" << error.line << ": " << error.message << "\n";
  }
  if (!result.zone.has_value()) return 1;
  const zone::Zone& z = *result.zone;
  std::cout << "zone " << z.apex().to_text() << ": " << z.name_count()
            << " owner names\n\nCanonical NSEC chain (what a DLV-style\n"
               "registry exposes to aggressive caching):\n";
  z.for_each_owner([&z](const dns::Name& owner) {
    std::cout << "  " << owner.to_text() << " -> "
              << z.canonical_successor(owner).to_text() << "\n";
  });
  return result.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "config" && argc >= 3) return audit_config(argv[2]);
  if (command == "simulate") return simulate(argc, argv);
  if (command == "zone" && argc >= 3) return audit_zone(argv[2]);
  return usage();
}
