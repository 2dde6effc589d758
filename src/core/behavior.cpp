#include "core/behavior.hpp"

#include <array>
#include <charconv>
#include <string_view>

#include "dns/name.hpp"
#include "obs/span.hpp"

namespace dnsembed::core {

GraphBuilderSink::GraphBuilderSink(std::int64_t bucket_seconds, const dns::PublicSuffixList& psl)
    : bucket_seconds_{bucket_seconds}, psl_{&psl} {
  if (bucket_seconds <= 0) {
    throw std::invalid_argument{"GraphBuilderSink: bucket_seconds must be positive"};
  }
}

void GraphBuilderSink::on_dns(const dns::LogEntry& entry) {
  // e2ld_or_self without its two normalize_name copies; names too long for
  // the buffer (and the empty name) take the allocating path.
  std::array<char, dns::kMaxNameLength> name_buf;
  std::string fallback;
  std::string_view e2ld = dns::normalize_name_view(entry.qname, name_buf);
  if (e2ld.empty()) {
    fallback = psl_->e2ld_or_self(entry.qname);
    e2ld = fallback;
  } else if (const auto owner = psl_->e2ld_view(e2ld); !owner.empty()) {
    e2ld = owner;
  }

  const graph::VertexId domain = hdbg_.add_right(e2ld);
  if (domain == slots_.size()) slots_.emplace_back();
  DomainSlot& slot = slots_[domain];
  hdbg_.add_edge(hdbg_.add_left(entry.host), domain);

  const std::int64_t bucket = entry.timestamp / bucket_seconds_;
  if (bucket_id_ == kUnassigned || bucket != bucket_) {
    std::array<char, 24> label{'m'};  // "m" + the decimal bucket
    const auto end = std::to_chars(label.data() + 1, label.data() + label.size(), bucket).ptr;
    bucket_ = bucket;
    bucket_id_ = dtbg_.add_left({label.data(), static_cast<std::size_t>(end - label.data())});
  }
  if (slot.dtbg == kUnassigned) slot.dtbg = dtbg_.add_right(e2ld);
  dtbg_.add_edge(bucket_id_, slot.dtbg);

  if (entry.addresses.empty()) return;
  if (slot.dibg == kUnassigned) slot.dibg = dibg_.add_right(e2ld);
  for (const auto& ip : entry.addresses) {
    const auto [it, inserted] = ip_ids_.try_emplace(ip.value(), kUnassigned);
    if (inserted) it->second = dibg_.add_left(ip.to_string());
    dibg_.add_edge(it->second, slot.dibg);
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
  const auto mask_for = [&](const graph::BipartiteGraph& g) {
    std::vector<bool> mask(g.right_count(), false);
    for (graph::VertexId r = 0; r < g.right_count(); ++r) {
      const auto id = hdbg.right_names().find(g.right_names().name(r));
      mask[r] = id && keep_mask[*id];
    }
    return mask;
  };

  BehaviorModel model;
  model.hdbg = hdbg.filter_right(keep_mask);
  model.dibg = dibg.filter_right(mask_for(dibg));
  model.dtbg = dtbg.filter_right(mask_for(dtbg));
  model.kept_domains = model.hdbg.right_names().names();
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
