// Behavioral modeling (paper §4): consume the DNS event stream into the
// three bipartite graphs — host x domain (HDBG), IP x domain (DIBG),
// minute x domain (DTBG) — aggregate names to e2LDs, apply the pruning
// rules, and project onto the domain side to obtain the three Jaccard
// similarity graphs (Eq. 1-3).
//
// Convention: domains are always the RIGHT vertex set, so project_right()
// yields domain similarity for all three graphs.
#pragma once

#include <string>
#include <vector>

#include "dns/log_record.hpp"
#include "dns/public_suffix.hpp"
#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "graph/stats.hpp"
#include "graph/weighted_graph.hpp"
#include "trace/sink.hpp"

namespace dnsembed::core {

/// Streaming sink that accumulates the three bipartite graphs.
class GraphBuilderSink final : public trace::TraceSink {
 public:
  /// Time-bucket width for the DTBG (paper: one minute).
  explicit GraphBuilderSink(std::int64_t bucket_seconds = 60,
                            const dns::PublicSuffixList& psl = dns::PublicSuffixList::builtin());

  void on_dns(const dns::LogEntry& entry) override;

  /// Finalize and take the graphs (call once, after the stream ends).
  graph::BipartiteGraph take_hdbg();
  graph::BipartiteGraph take_dibg();
  graph::BipartiteGraph take_dtbg();

 private:
  std::int64_t bucket_seconds_;
  const dns::PublicSuffixList* psl_;
  graph::BipartiteGraph hdbg_;  // host x e2LD
  graph::BipartiteGraph dibg_;  // IP x e2LD
  graph::BipartiteGraph dtbg_;  // minute-bucket x e2LD
};

struct BehaviorModelConfig {
  graph::DegreePruneOptions prune;          // paper's rules 1-2
  graph::ProjectionOptions query_projection;
  graph::ProjectionOptions ip_projection;
  graph::ProjectionOptions temporal_projection;
};

/// The pruned graphs plus the three domain similarity graphs. All four
/// domain-indexed structures share the same vertex set (kept_domains), but
/// vertex ids are per-graph.
struct BehaviorModel {
  std::vector<std::string> kept_domains;
  graph::BipartiteGraph hdbg;
  graph::BipartiteGraph dibg;
  graph::BipartiteGraph dtbg;
  graph::WeightedGraph query_similarity;
  graph::WeightedGraph ip_similarity;
  graph::WeightedGraph temporal_similarity;
};

/// Prune only (host-degree rules computed on the HDBG, applied to every
/// graph): kept_domains and the pruned graphs, similarity graphs left
/// empty. Consumes the graphs.
BehaviorModel prune_behavior_graphs(graph::BipartiteGraph hdbg, graph::BipartiteGraph dibg,
                                    graph::BipartiteGraph dtbg,
                                    const graph::DegreePruneOptions& prune);

/// Prune, then project. Consumes the graphs.
BehaviorModel build_behavior_model(graph::BipartiteGraph hdbg, graph::BipartiteGraph dibg,
                                   graph::BipartiteGraph dtbg,
                                   const BehaviorModelConfig& config);

}  // namespace dnsembed::core
