#include "batch.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/behavior.hpp"
#include "core/clustering.hpp"
#include "core/detector.hpp"
#include "core/report.hpp"
#include "embed/embedder.hpp"
#include "graph/io.hpp"
#include "intel/labels.hpp"
#include "intel/virustotal.hpp"
#include "trace/sink.hpp"
#include "util/artifact.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace core = dnsembed::core;
namespace embed = dnsembed::embed;
namespace graph = dnsembed::graph;
namespace intel = dnsembed::intel;
namespace trace = dnsembed::trace;
namespace util = dnsembed::util;

namespace {

class EntrySink final : public trace::TraceSink {
 public:
  explicit EntrySink(std::vector<dnsembed::dns::LogEntry>& out) : out_{out} {}
  void on_dns(const dnsembed::dns::LogEntry& entry) override { out_.push_back(entry); }

 private:
  std::vector<dnsembed::dns::LogEntry>& out_;
};

constexpr const char* kChannels[3] = {"query", "ip", "temporal"};

core::BehaviorModelConfig behavior_config(const core::PipelineConfig& config) {
  core::BehaviorModelConfig behavior = config.behavior;
  for (auto* proj : {&behavior.query_projection, &behavior.ip_projection,
                     &behavior.temporal_projection}) {
    proj->threads = config.projection_threads;
    proj->mode = config.projection_mode;
    proj->sketch = config.sketch;
  }
  return behavior;
}

core::BehaviorModel ingest_and_model(const core::PipelineConfig& config,
                                     const TraceInputs& inputs, Tracer& tracer,
                                     double* ingest_s = nullptr) {
  core::GraphBuilderSink graphs;
  const double t0 = now_s();
  {
    ScopedSpan span{tracer, "dns.ingest"};
    for (const auto& entry : inputs.entries) graphs.on_dns(entry);
  }
  if (ingest_s != nullptr) *ingest_s = now_s() - t0;
  ScopedSpan span{tracer, "graph.behavior"};
  return core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(), graphs.take_dtbg(),
                                    behavior_config(config));
}

core::DetectionEvaluation evaluate(Tracer& tracer, const std::string& span_name,
                                   const embed::EmbeddingMatrix& embedding,
                                   const intel::LabeledSet& labels,
                                   const core::PipelineConfig& config, double* seconds) {
  const double t0 = now_s();
  ScopedSpan span{tracer, span_name};
  auto eval = core::evaluate_svm(core::make_dataset(embedding, labels), config.svm, config.kfold,
                                 config.seed);
  if (seconds != nullptr) *seconds = now_s() - t0;
  return eval;
}

std::string digest(const std::string& bytes) { return util::hex64(util::xxhash64(bytes)); }

/// AUC cell of a report row ("| <label> | <auc> |", bold for combined).
double report_auc(const std::string& report, const std::string& label) {
  const auto at = report.find("| " + label + " | ");
  if (at == std::string::npos) return 0.0;
  std::size_t pos = at + label.size() + 5;
  while (pos < report.size() && report[pos] == '*') ++pos;
  return std::strtod(report.c_str() + pos, nullptr);
}

std::string read_text(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> parse_domain_list(const std::string& payload) {
  std::istringstream in{payload};
  std::string key;
  std::size_t count = 0;
  if (!(in >> key >> count) || key != "domains") throw std::runtime_error{"bad domain list"};
  std::vector<std::string> out(count);
  for (auto& domain : out) in >> domain;
  return out;
}

}  // namespace

TraceInputs generate_inputs(const trace::TraceConfig& config) {
  TraceInputs inputs;
  EntrySink sink{inputs.entries};
  inputs.result = trace::generate_trace(config, sink);
  return inputs;
}

BatchOutcome run_in_process(const core::PipelineConfig& config, const TraceInputs& inputs,
                            const std::string& report_path, Tracer& tracer) {
  core::PipelineResult result;
  result.trace = inputs.result;  // truth + counts; copied outside the timed path
  BatchOutcome out;
  const Usage before = usage_now();
  const double t0 = now_s();
  {
    ScopedSpan root{tracer, "core.pipeline"};
    result.model = ingest_and_model(config, inputs, tracer);

    embed::EmbedConfig embed_config = config.embedding;
    embed_config.dimension = config.embedding_dimension;
    const graph::WeightedGraph* graphs[3] = {&result.model.query_similarity,
                                             &result.model.ip_similarity,
                                             &result.model.temporal_similarity};
    embed::EmbeddingMatrix* targets[3] = {&result.query_embedding, &result.ip_embedding,
                                          &result.temporal_embedding};
    for (int c = 0; c < 3; ++c) {
      ScopedSpan span{tracer, std::string{"embed."} + kChannels[c]};
      embed_config.seed = config.seed + static_cast<std::uint64_t>(c);
      *targets[c] = embed::embed_graph(*graphs[c], embed_config);
    }
    {
      ScopedSpan span{tracer, "embed.concat"};
      result.combined_embedding = embed::EmbeddingMatrix::concat(
          result.model.kept_domains,
          {&result.query_embedding, &result.ip_embedding, &result.temporal_embedding});
    }
    {
      ScopedSpan span{tracer, "intel.labels"};
      const intel::VirusTotalSim vt{result.trace.truth, config.virustotal};
      result.labels = intel::build_labeled_set(result.model.kept_domains, result.trace.truth,
                                               vt, config.labeling);
    }
    core::ChannelEvaluations evals;
    evals.query = evaluate(tracer, "ml.svm_cv.query", result.query_embedding, result.labels,
                           config, nullptr);
    evals.ip =
        evaluate(tracer, "ml.svm_cv.ip", result.ip_embedding, result.labels, config, nullptr);
    evals.temporal = evaluate(tracer, "ml.svm_cv.temporal", result.temporal_embedding,
                              result.labels, config, nullptr);
    evals.combined = evaluate(tracer, "ml.svm_cv.combined", result.combined_embedding,
                              result.labels, config, nullptr);
    core::ClusteringResult clusters;
    {
      ScopedSpan span{tracer, "ml.xmeans"};
      clusters = core::cluster_domains(result.combined_embedding, result.model.kept_domains,
                                       result.trace.truth, config.xmeans);
    }
    {
      ScopedSpan span{tracer, "core.report"};
      std::ostringstream report;
      core::write_detection_report(report, result, evals, clusters);
      out.report = report.str();
      std::ofstream file{report_path, std::ios::binary};
      file << out.report;
      if (!file.flush()) throw std::runtime_error{"cannot write " + report_path};
    }
    out.auc = {evals.query.auc, evals.ip.auc, evals.temporal.auc, evals.combined.auc};
  }
  out.pipeline_s = now_s() - t0;
  out.cpu_s = usage_now().cpu_s - before.cpu_s;
  out.report_digest = digest(out.report);
  out.kept_domains = result.model.kept_domains.size();
  out.edges = {result.model.query_similarity.edge_count(),
               result.model.ip_similarity.edge_count(),
               result.model.temporal_similarity.edge_count()};
  out.labeled = result.labels.size();
  out.artifact_bytes = out.report.size();
  out.combined = std::move(result.combined_embedding);
  out.labels = std::move(result.labels);
  out.model = std::move(result.model);
  return out;
}

BatchOutcome run_durable(const core::RunOptions& options, Tracer& tracer) {
  std::filesystem::remove_all(options.workdir);
  BatchOutcome out;
  const Usage before = usage_now();
  const double t0 = now_s();
  const int root = tracer.begin("core.run_resumable");
  out.summary = core::run_resumable(options);
  tracer.end(root);
  out.pipeline_s = now_s() - t0;
  out.cpu_s = usage_now().cpu_s - before.cpu_s;
  if (!out.summary.quarantined.empty()) throw std::runtime_error{"run quarantined shards"};

  if (tracer.enabled()) {
    // The stages run back to back inside run_resumable; their durations
    // come from the program's own stage timers (RunSummary).
    const std::pair<const char*, const char*> layer_of[] = {
        {"trace", "dns.trace_stage"},      {"behavior", "graph.behavior_stage"},
        {"embed", "embed.stage"},          {"labels", "intel.labels_stage"},
        {"report", "ml.report_stage"}};
    double at = t0;
    for (const auto& stage : out.summary.stages) {
      std::string name = "core.stage." + stage.name;
      for (const auto& [stage_name, span_name] : layer_of) {
        if (stage.name == stage_name) name = span_name;
      }
      tracer.add(name, at, at + stage.seconds, root);
      at += stage.seconds;
    }
  }

  const auto path = [&](const char* file) { return options.workdir + "/" + file; };
  out.report = read_text(out.summary.report_path);
  out.report_digest = digest(out.report);
  out.auc = {report_auc(out.report, "query behavioral"), report_auc(out.report, "IP resolving"),
             report_auc(out.report, "temporal"), report_auc(out.report, "**combined**")};
  out.artifact_bytes = directory_bytes(options.workdir);
  const char* csr_files[3] = {"query_sim.csr", "ip_sim.csr", "temporal_sim.csr"};
  for (std::size_t c = 0; c < 3; ++c) {
    out.edges[c] = graph::load_csr_file(path(csr_files[c])).edge_count();
  }
  out.combined = embed::EmbeddingMatrix::load_arena_file(path("combined.emb"));
  out.labels = intel::load_labeled_file(path("labeled.set"));
  out.kept_domains = out.combined.size();
  out.labeled = out.labels.size();
  return out;
}

std::array<double, 3> reproject(const core::BehaviorModel& model,
                                const core::PipelineConfig& config,
                                std::array<std::size_t, 3>& edges, Tracer& tracer) {
  const auto behavior = behavior_config(config);
  const graph::BipartiteGraph* pruned[3] = {&model.hdbg, &model.dibg, &model.dtbg};
  const graph::ProjectionOptions* options[3] = {
      &behavior.query_projection, &behavior.ip_projection, &behavior.temporal_projection};
  std::array<double, 3> seconds{};
  for (int c = 0; c < 3; ++c) {
    const double t0 = now_s();
    ScopedSpan span{tracer, std::string{"graph.project."} + kChannels[c]};
    edges[static_cast<std::size_t>(c)] = graph::project_right(*pruned[c], *options[c]).edge_count();
    seconds[static_cast<std::size_t>(c)] = now_s() - t0;
  }
  return seconds;
}

DurableReplay replay_durable(const core::RunOptions& options, const TraceInputs& inputs,
                             const std::string& run_report, Tracer& tracer) {
  const auto& config = options.config;
  const auto path = [&](const char* file) { return options.workdir + "/" + file; };
  DurableReplay out;
  core::PipelineResult result;
  result.model = ingest_and_model(config, inputs, tracer, &out.ingest_s);
  out.project_s = reproject(result.model, config, out.edges, tracer);

  // The report stage exactly as the durable runner feeds it: everything is
  // reloaded from the run's artifacts.
  const char* csr_files[3] = {"query_sim.csr", "ip_sim.csr", "temporal_sim.csr"};
  graph::WeightedGraph* similarity[3] = {&result.model.query_similarity,
                                         &result.model.ip_similarity,
                                         &result.model.temporal_similarity};
  for (int c = 0; c < 3; ++c) {
    *similarity[c] = graph::from_csr(graph::load_csr_file(path(csr_files[c])));
  }
  result.trace.truth = trace::load_ground_truth_file(path("truth.gt"));
  {
    std::istringstream stats{util::load_artifact(path("trace.stats"), "trace-stats")};
    std::string key;
    stats >> key >> result.trace.dns_events >> key >> result.trace.nxdomain_events >> key >>
        result.trace.flow_events;
  }
  result.model.kept_domains =
      parse_domain_list(util::load_artifact(path("kept.domains"), "domain-list"));
  result.query_embedding = embed::EmbeddingMatrix::load_arena_file(path("query.emb"));
  result.ip_embedding = embed::EmbeddingMatrix::load_arena_file(path("ip.emb"));
  result.temporal_embedding = embed::EmbeddingMatrix::load_arena_file(path("temporal.emb"));
  result.combined_embedding = embed::EmbeddingMatrix::load_arena_file(path("combined.emb"));
  result.labels = intel::load_labeled_file(path("labeled.set"));

  core::ChannelEvaluations evals;
  core::DetectionEvaluation* targets[4] = {&evals.query, &evals.ip, &evals.temporal,
                                           &evals.combined};
  const embed::EmbeddingMatrix* embeddings[4] = {&result.query_embedding, &result.ip_embedding,
                                                 &result.temporal_embedding,
                                                 &result.combined_embedding};
  const char* names[4] = {"ml.svm_cv.query", "ml.svm_cv.ip", "ml.svm_cv.temporal",
                          "ml.svm_cv.combined"};
  for (std::size_t i = 0; i < 4; ++i) {
    *targets[i] = evaluate(tracer, names[i], *embeddings[i], result.labels, config,
                           &out.svm_cv_s[i]);
    out.auc[i] = targets[i]->auc;
  }
  double t0 = now_s();
  core::ClusteringResult clusters;
  {
    ScopedSpan span{tracer, "ml.xmeans"};
    clusters = core::cluster_domains(result.combined_embedding, result.model.kept_domains,
                                     result.trace.truth, config.xmeans);
  }
  out.xmeans_s = now_s() - t0;
  t0 = now_s();
  std::ostringstream report;
  {
    ScopedSpan span{tracer, "core.report"};
    core::write_detection_report(report, result, evals, clusters);
  }
  out.report_s = now_s() - t0;
  out.report_identical = report.str() == run_report;
  return out;
}

}  // namespace perfbench
