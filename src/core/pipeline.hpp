// End-to-end pipeline façade (paper Fig. 2): trace -> bipartite graphs ->
// pruning -> one-mode projections -> graph embeddings -> labeled set ->
// SVM detection / X-Means mining. Benches and examples drive experiments
// through this type.
//
// run_pipeline is the in-memory driver of the stage table that
// run_resumable (core/run.hpp) drives against a workdir: the same tasks
// run inline, their artifacts stay in memory, and the result is decoded
// from those artifacts by the loader the durable report stage uses. Both
// drivers therefore produce the same graphs, embeddings and labels bit for
// bit, and the report written from either is byte-identical.
#pragma once

#include <cstdint>

#include "core/behavior.hpp"
#include "core/detector.hpp"
#include "embed/embedder.hpp"
#include "intel/labels.hpp"
#include "intel/virustotal.hpp"
#include "ml/svm.hpp"
#include "ml/xmeans.hpp"
#include "trace/config.hpp"
#include "trace/generator.hpp"

namespace dnsembed::core {

struct PipelineConfig {
  trace::TraceConfig trace;
  BehaviorModelConfig behavior;

  /// Worker threads for the three one-mode projections (0 = one per
  /// hardware thread). Applied to all three ProjectionOptions in
  /// `behavior` by both drivers; projection output is deterministic for
  /// every value, so this is purely a throughput knob.
  std::size_t projection_threads = 0;

  /// Projection backend for the three one-mode projections, applied to all
  /// three ProjectionOptions in `behavior` like projection_threads.
  /// kSketched swaps exact pair counting for minhash/LSH candidate
  /// generation with exact verification — the million-domain route. Unlike
  /// projection_threads this changes the output (a high-recall subgraph),
  /// so it participates in the resumable-run config hash.
  graph::ProjectionMode projection_mode = graph::ProjectionMode::kExact;

  /// Minhash/LSH parameters used when projection_mode == kSketched.
  graph::SketchOptions sketch;

  /// Embedding size k per similarity graph; the combined vector is 3k
  /// (paper §6.1).
  std::size_t embedding_dimension = 32;
  embed::EmbedConfig embedding;  // method + method knobs; dimension/seed overridden

  intel::VirusTotalConfig virustotal;
  intel::LabelingConfig labeling;

  ml::SvmConfig svm;     // paper defaults: RBF, C = 0.09, gamma = 0.06
  std::size_t kfold = 10;

  ml::XMeansConfig xmeans;

  std::uint64_t seed = 1;

  PipelineConfig() {
    // Budget LINE by total samples, not per-edge: similarity graphs can
    // have millions of edges.
    embedding.line.total_samples = 6'000'000;
    embedding.line.threads = 4;
    // Kernel fill / batch scoring parallelism (deterministic; see SvmConfig).
    svm.threads = 0;
    xmeans.k_min = 4;
    xmeans.k_max = 48;
  }
};

/// Decoded from the run's artifacts. trace.dhcp is not persisted and stays
/// empty; model.hdbg/dibg/dtbg are the pruned bipartite graphs.
struct PipelineResult {
  trace::TraceResult trace;
  BehaviorModel model;
  embed::EmbeddingMatrix query_embedding;
  embed::EmbeddingMatrix ip_embedding;
  embed::EmbeddingMatrix temporal_embedding;
  embed::EmbeddingMatrix combined_embedding;  // R^{3k}, rows = kept_domains
  intel::LabeledSet labels;
};

/// Run trace generation through embedding + labeling. Detection and
/// clustering are separate calls (they are the per-experiment variables).
/// `observer`, when given, also receives every trace event — the raw DNS
/// log and the netflow records, which are not artifacts.
PipelineResult run_pipeline(const PipelineConfig& config,
                            trace::TraceSink* observer = nullptr);

/// Convenience: evaluate the SVM on each feature channel and the combined
/// vector (Figs. 6-7).
struct ChannelEvaluations {
  DetectionEvaluation query;
  DetectionEvaluation ip;
  DetectionEvaluation temporal;
  DetectionEvaluation combined;
};

ChannelEvaluations evaluate_channels(const PipelineResult& result, const PipelineConfig& config);

}  // namespace dnsembed::core
