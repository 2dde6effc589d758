// Behavioral modeling (paper §4): consume the DNS event stream into the
// three bipartite graphs — host x domain (HDBG), IP x domain (DIBG),
// minute x domain (DTBG) — aggregate names to e2LDs, apply the pruning
// rules, and project onto the domain side to obtain the three Jaccard
// similarity graphs (Eq. 1-3).
//
// Convention: domains are always the RIGHT vertex set, so project_right()
// yields domain similarity for all three graphs.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
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
///
/// Ingest resolves each entry to vertex ids without building per-event
/// strings: the qname is normalized into a stack buffer and cut to its e2LD
/// as a view, and every lookup probes an interner or id map with that view
/// or integer, so a string is allocated only when a vertex is new. Each
/// e2LD has one slot, indexed by its HDBG right id (every entry reaches the
/// HDBG, so the HDBG's right interner is the e2LD -> slot map), that holds
/// its DIBG and DTBG right ids; each id is assigned the first time the
/// domain appears in that graph, so every graph numbers its vertices in
/// first-appearance order, exactly as interning the strings would. Addresses
/// map to DIBG left ids by Ipv4::value(), and the current minute bucket's
/// DTBG id is cached until the bucket changes. Extra memory is bounded by
/// the distinct e2LDs and addresses, which the graphs hold anyway.
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
  static constexpr graph::VertexId kUnassigned = ~graph::VertexId{0};

  // One e2LD's right ids in the graphs other than the HDBG.
  struct DomainSlot {
    graph::VertexId dibg = kUnassigned;
    graph::VertexId dtbg = kUnassigned;
  };

  std::int64_t bucket_seconds_;
  const dns::PublicSuffixList* psl_;
  graph::BipartiteGraph hdbg_;  // host x e2LD
  graph::BipartiteGraph dibg_;  // IP x e2LD
  graph::BipartiteGraph dtbg_;  // minute-bucket x e2LD
  std::vector<DomainSlot> slots_;  // by HDBG right id
  std::unordered_map<std::uint32_t, graph::VertexId> ip_ids_;  // Ipv4::value() -> DIBG left id
  std::int64_t bucket_ = 0;
  graph::VertexId bucket_id_ = kUnassigned;  // DTBG left id of bucket_
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
