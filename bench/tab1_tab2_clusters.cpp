// Tables 1-2 and §7.2.2: X-Means cluster mining. Prints the discovered
// spam-domain cluster (Table 1 style), the DGA-generated cluster (Table 2
// style), and the netflow traffic pattern of malicious clusters (shared
// server IPs, destination ports, distinct campus hosts).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/clustering.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace dnsembed;

void print_cluster_table(const core::DomainCluster& cluster, const char* label,
                         std::size_t max_domains = 18) {
  std::printf("\n--- %s: cluster #%zu, %zu domains, %.0f%% malicious, family %s ---\n", label,
              cluster.id, cluster.domains.size(), cluster.malicious_fraction() * 100.0,
              cluster.dominant_family.empty() ? "(none)" : cluster.dominant_family.c_str());
  std::size_t printed = 0;
  for (const auto& domain : cluster.domains) {
    std::printf("  %-28s", domain.c_str());
    if (++printed % 3 == 0) std::printf("\n");
    if (printed >= max_domains) break;
  }
  if (printed % 3 != 0) std::printf("\n");
}

}  // namespace

int main() {
  using namespace dnsembed;
  const auto config = bench::bench_pipeline_config();
  bench::print_header(
      "Tables 1-2 + section 7.2.2: malware-family clusters and traffic patterns",
      "61-domain spam cluster (.bid), 131-domain Conficker DGA cluster (.ws); clusters "
      "share IPs/ports across a common victim set");

  util::Stopwatch watch;
  trace::CollectingSink events;  // netflow is not a pipeline artifact (§7.2.2)
  const auto result = core::run_pipeline(config, &events);
  const auto clustering = core::cluster_domains(result.combined_embedding,
                                                result.model.kept_domains,
                                                result.trace.truth, config.xmeans);
  std::printf("X-Means selected k = %zu over %zu domains (%.1fs total)\n", clustering.k,
              result.model.kept_domains.size(), watch.seconds());

  // Find the strongest spam-dominated and DGA-dominated clusters.
  const core::DomainCluster* spam = nullptr;
  const core::DomainCluster* dga = nullptr;
  for (const auto& cluster : clustering.clusters) {
    if (cluster.malicious_fraction() < 0.5) continue;
    if (spam == nullptr && cluster.dominant_family.find("spam") != std::string::npos) {
      spam = &cluster;
    }
    if (dga == nullptr && cluster.dominant_family.find("dga") != std::string::npos) {
      dga = &cluster;
    }
  }

  if (spam != nullptr) print_cluster_table(*spam, "Table 1 (spam campaign cluster)");
  if (dga != nullptr) print_cluster_table(*dga, "Table 2 (DGA-generated cluster)");

  // §7.2.2 traffic patterns for the top three malicious clusters.
  std::printf("\n--- section 7.2.2: traffic patterns of malicious clusters ---\n");
  std::size_t shown = 0;
  for (const auto& cluster : clustering.clusters) {
    if (cluster.malicious_fraction() < 0.5 || cluster.domains.size() < 3) continue;
    const auto pattern = core::traffic_pattern_for(cluster, result.trace.truth, events.flows());
    std::string ports;
    for (const auto p : pattern.ports) {
      if (!ports.empty()) ports += ", ";
      ports += std::to_string(p);
    }
    std::printf("cluster #%zu (%s): %zu domains share %zu server IPs; %zu campus hosts; "
                "ports {%s}; %zu flows\n",
                cluster.id, cluster.dominant_family.c_str(), cluster.domains.size(),
                pattern.server_ips.size(), pattern.distinct_hosts, ports.c_str(),
                pattern.flows);
    if (++shown >= 3) break;
  }

  const bool shape = spam != nullptr && dga != nullptr && shown > 0;
  std::printf("\nshape check (spam + DGA clusters recovered with traffic patterns): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
