#include "core/behavior.hpp"

#include <unordered_set>

#include "obs/span.hpp"

namespace dnsembed::core {

GraphBuilderSink::GraphBuilderSink(std::int64_t bucket_seconds, const dns::PublicSuffixList& psl)
    : bucket_seconds_{bucket_seconds}, psl_{&psl} {
  if (bucket_seconds <= 0) {
    throw std::invalid_argument{"GraphBuilderSink: bucket_seconds must be positive"};
  }
}

void GraphBuilderSink::on_dns(const dns::LogEntry& entry) {
  const std::string e2ld = psl_->e2ld_or_self(entry.qname);
  hdbg_.add_edge(entry.host, e2ld);
  dtbg_.add_edge("m" + std::to_string(entry.timestamp / bucket_seconds_), e2ld);
  for (const auto& ip : entry.addresses) {
    dibg_.add_edge(ip.to_string(), e2ld);
  }
}

graph::BipartiteGraph GraphBuilderSink::take_hdbg() {
  hdbg_.finalize();
  return std::move(hdbg_);
}

graph::BipartiteGraph GraphBuilderSink::take_dibg() {
  dibg_.finalize();
  return std::move(dibg_);
}

graph::BipartiteGraph GraphBuilderSink::take_dtbg() {
  dtbg_.finalize();
  return std::move(dtbg_);
}

BehaviorModel prune_behavior_graphs(graph::BipartiteGraph hdbg, graph::BipartiteGraph dibg,
                                    graph::BipartiteGraph dtbg,
                                    const graph::DegreePruneOptions& prune) {
  hdbg.finalize();
  dibg.finalize();
  dtbg.finalize();

  OBS_SPAN("behavior.model");
  // Pruning rules 1-2 are defined on host behavior, i.e. on the HDBG.
  const auto keep_mask = graph::right_degree_keep_mask(hdbg, prune);
  std::unordered_set<std::string> kept;
  for (graph::VertexId r = 0; r < hdbg.right_count(); ++r) {
    if (keep_mask[r]) kept.insert(hdbg.right_names().name(r));
  }

  const auto mask_for = [&kept](const graph::BipartiteGraph& g) {
    std::vector<bool> mask(g.right_count(), false);
    for (graph::VertexId r = 0; r < g.right_count(); ++r) {
      mask[r] = kept.contains(g.right_names().name(r));
    }
    return mask;
  };

  BehaviorModel model;
  model.hdbg = hdbg.filter_right(keep_mask);
  model.dibg = dibg.filter_right(mask_for(dibg));
  model.dtbg = dtbg.filter_right(mask_for(dtbg));

  model.kept_domains.reserve(kept.size());
  for (graph::VertexId r = 0; r < model.hdbg.right_count(); ++r) {
    model.kept_domains.push_back(model.hdbg.right_names().name(r));
  }
  return model;
}

BehaviorModel build_behavior_model(graph::BipartiteGraph hdbg, graph::BipartiteGraph dibg,
                                   graph::BipartiteGraph dtbg,
                                   const BehaviorModelConfig& config) {
  auto model =
      prune_behavior_graphs(std::move(hdbg), std::move(dibg), std::move(dtbg), config.prune);
  {
    OBS_SPAN("behavior.project.query");
    model.query_similarity = graph::project_right(model.hdbg, config.query_projection);
  }
  {
    OBS_SPAN("behavior.project.ip");
    model.ip_similarity = graph::project_right(model.dibg, config.ip_projection);
  }
  {
    OBS_SPAN("behavior.project.temporal");
    model.temporal_similarity = graph::project_right(model.dtbg, config.temporal_projection);
  }
  return model;
}

}  // namespace dnsembed::core
