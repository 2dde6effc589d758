// Batch pipeline runners of the benchmark: the in-process layer-by-layer
// path (batch_line, and the artifact run of serve_zipf) and the durable
// core::run_resumable path (batch_wide), plus the traced-run replays that
// time single layers on a finished run's own inputs and artifacts.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/run.hpp"
#include "dns/log_record.hpp"
#include "harness.hpp"
#include "trace/generator.hpp"

namespace perfbench {

/// The generated DNS log of one workload: setup output, kept as entries so
/// the timed path starts at ingest.
struct TraceInputs {
  dnsembed::trace::TraceResult result;
  std::vector<dnsembed::dns::LogEntry> entries;
};
TraceInputs generate_inputs(const dnsembed::trace::TraceConfig& config);

/// What one pipeline repetition produced.
struct BatchOutcome {
  double pipeline_s = 0.0;  // first timed call -> report written
  double cpu_s = 0.0;       // self + reaped children over that interval
  std::string report;       // report.md bytes
  std::string report_digest;
  std::array<double, 4> auc{};  // query, ip, temporal, combined
  std::size_t kept_domains = 0;
  std::array<std::size_t, 3> edges{};  // query, ip, temporal similarity edges
  std::size_t labeled = 0;
  /// Combined embedding and labeled set, handed to the serving phase.
  dnsembed::embed::EmbeddingMatrix combined;
  dnsembed::intel::LabeledSet labels;
  /// In-process runs keep the behavior model for the traced re-projection.
  dnsembed::core::BehaviorModel model;
  /// Durable runs only.
  dnsembed::core::RunSummary summary;
  std::uint64_t artifact_bytes = 0;
};

/// One in-process repetition: replay `inputs` into core::GraphBuilderSink,
/// then behavior model, three embeddings, labels, four SVM evaluations,
/// clustering and the report written to `report_path`. Spans (when the
/// tracer is on) wrap each public layer call under "core.pipeline".
BatchOutcome run_in_process(const dnsembed::core::PipelineConfig& config,
                            const TraceInputs& inputs, const std::string& report_path,
                            Tracer& tracer);

/// One durable repetition: core::run_resumable into a fresh options.workdir.
/// When tracing, the RunSummary stage durations become child spans of
/// "core.run_resumable", named after the layer doing the stage's work.
BatchOutcome run_durable(const dnsembed::core::RunOptions& options, Tracer& tracer);

/// Per-channel projection timings: graph::project_right again on the pruned
/// graphs, with the channel options the behavior model used. Returns
/// seconds per channel and sets `edges` to the projected edge counts.
std::array<double, 3> reproject(const dnsembed::core::BehaviorModel& model,
                                const dnsembed::core::PipelineConfig& config,
                                std::array<std::size_t, 3>& edges, Tracer& tracer);

/// Layer timings of a durable run, measured by replaying its public layer
/// calls outside the timed path: ingest of the same log, the behavior
/// model, and the report stage (SVM CV, X-Means, report) on the run's own
/// artifacts. The replayed report must be byte-identical to the run's.
struct DurableReplay {
  double ingest_s = 0.0;
  std::array<double, 3> project_s{};
  std::array<std::size_t, 3> edges{};  // re-projected
  std::array<double, 4> svm_cv_s{};
  std::array<double, 4> auc{};
  double xmeans_s = 0.0;
  double report_s = 0.0;
  bool report_identical = false;
};
DurableReplay replay_durable(const dnsembed::core::RunOptions& options,
                             const TraceInputs& inputs, const std::string& run_report,
                             Tracer& tracer);

}  // namespace perfbench
