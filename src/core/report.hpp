// Operator-facing markdown report: summarizes a detection run — traffic
// volume, graph sizes, cross-validated quality per feature channel, and
// the most suspicious clusters with sample domains. Everything in it comes
// from the run's artifacts, so `dnsembed run` writes it as DIR/report.md
// and `dnsembed report` writes the same bytes, followed by appendices
// built from what is not an artifact (the clusters' netflow patterns, the
// streaming replay).
#pragma once

#include <iosfwd>

#include "core/clustering.hpp"
#include "core/pipeline.hpp"
#include "core/supervisor.hpp"

namespace dnsembed::core {

struct ReportOptions {
  std::size_t top_clusters = 5;
  std::size_t sample_domains = 6;
  /// Domains with detector scores above this count as "flagged".
  double score_threshold = 0.0;
};

/// Write the report as markdown. `evals` and `clusters` may be partial
/// results of the same pipeline run; ground-truth columns are included
/// only when the trace carries a truth registry (simulation runs).
void write_detection_report(std::ostream& out, const PipelineResult& result,
                            const ChannelEvaluations& evals,
                            const ClusteringResult& clusters,
                            const ReportOptions& options = {});

/// "Cluster traffic" appendix (§7.2.2): the netflow pattern of each cluster
/// the report lists under "Most suspicious clusters", for the clusters
/// that saw flows.
void write_traffic_appendix(std::ostream& out, const PipelineResult& result,
                            const ClusteringResult& clusters,
                            const std::vector<trace::NetflowRecord>& flows,
                            const ReportOptions& options = {});

/// Markdown "Worker resources" table from the supervisor's per-task wait4
/// accounting (attempts, wall, cpu user/sys, max RSS). Rendered to the
/// CLI's stdout and mirrored by the --status-out file — deliberately NOT
/// part of report.md, which must stay byte-identical between supervised
/// and single-process runs. No-op when no task ran.
void write_worker_resources(std::ostream& out, const SupervisionStats& stats);

}  // namespace dnsembed::core
