#include "core/run.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>

#include "core/behavior.hpp"
#include "core/clustering.hpp"
#include "core/report.hpp"
#include "graph/io.hpp"
#include "intel/labels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/generator.hpp"
#include "util/artifact.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace dnsembed::core {

StageDeadlineExceeded::StageDeadlineExceeded(std::string stage)
    : std::runtime_error{"stage '" + stage + "' exceeded its deadline"},
      stage_{std::move(stage)} {}

namespace {

// ---------------------------------------------------------------- layout

/// Artifact files per stage. kind == nullptr marks a raw (non-container)
/// file whose digest is still tracked in the manifest (the report).
struct ArtifactSpec {
  const char* file;
  const char* kind;
};

struct StageSpec {
  const char* name;
  std::vector<ArtifactSpec> artifacts;
};

const std::vector<StageSpec>& stage_specs() {
  static const std::vector<StageSpec> specs{
      {"trace",
       {{"hdbg.bg", "bipartite-arena"},
        {"dibg.bg", "bipartite-arena"},
        {"dtbg.bg", "bipartite-arena"},
        {"kept.domains", "domain-list"},
        {"truth.gt", "ground-truth"},
        {"trace.stats", "trace-stats"}}},
      {"behavior",
       {{"query_sim.csr", "csr-graph"},
        {"ip_sim.csr", "csr-graph"},
        {"temporal_sim.csr", "csr-graph"}}},
      {"embed",
       {{"query.emb", "embedding-arena"},
        {"ip.emb", "embedding-arena"},
        {"temporal.emb", "embedding-arena"},
        {"combined.emb", "embedding-arena"}}},
      {"labels", {{"labeled.set", "labeled-set"}}},
      {"report", {{"report.md", nullptr}}},
  };
  return specs;
}

std::string join(const std::string& dir, const char* file) { return dir + "/" + file; }

// ----------------------------------------------------------------- store

/// Where a run's artifacts live, keyed by file name: checksummed files
/// under a workdir (run_resumable), or the same container bytes in memory
/// (run_pipeline: no workdir, no fsync). Every stage task writes and reads
/// through put/load, so both drivers encode and decode the same bytes.
class ArtifactStore {
 public:
  /// An empty workdir keeps the artifacts in memory.
  explicit ArtifactStore(std::string workdir) : workdir_{std::move(workdir)} {}

  /// The file's path under the workdir (its bare name in memory).
  std::string path(const std::string& file) const {
    return workdir_.empty() ? file : workdir_ + "/" + file;
  }

  /// Commit `payload` as `file`, in a checksummed container of `kind`
  /// (an empty kind stores the bytes as they are: the report).
  void put(const std::string& file, std::string_view kind, std::string_view payload) {
    if (workdir_.empty()) {
      memory_[file] = kind.empty() ? std::string{payload} : util::make_artifact(kind, payload);
    } else if (kind.empty()) {
      util::fsio::atomic_write_file(path(file), payload);
    } else {
      util::save_artifact(path(file), kind, payload);
    }
  }

  /// parse(payload, path) over the validated payload of `file`: mapped
  /// from the file, or a view of the store's bytes, valid during the call.
  template <typename Parse>
  auto load(const std::string& file, std::string_view kind, Parse parse) const {
    if (!workdir_.empty()) {
      const auto mapped = util::map_artifact(path(file), kind);
      return parse(mapped.payload(), path(file));
    }
    const auto it = memory_.find(file);
    if (it == memory_.end()) throw std::logic_error{"run: artifact " + file + " not produced"};
    return parse(util::validate_artifact_view(it->second, kind, file), file);
  }

 private:
  std::string workdir_;
  std::map<std::string, std::string> memory_;
};

// ------------------------------------------------------- small payloads

struct TraceStats {
  std::size_t dns_events = 0;
  std::size_t nxdomain_events = 0;
  std::size_t flow_events = 0;
};

std::string trace_stats_payload(const TraceStats& stats) {
  std::ostringstream out;
  out << "dns_events " << stats.dns_events << "\nnxdomain_events " << stats.nxdomain_events
      << "\nflow_events " << stats.flow_events << "\n";
  return out.str();
}

[[noreturn]] void corrupt_payload(const std::string& path, std::string reason) {
  util::fsio::note_corrupt_detected();
  throw util::CorruptArtifact{path, std::move(reason)};
}

TraceStats parse_trace_stats(std::string_view payload, const std::string& path) {
  std::istringstream in{std::string{payload}};
  TraceStats stats;
  std::string key;
  if (!(in >> key >> stats.dns_events) || key != "dns_events") {
    corrupt_payload(path, "trace-stats: bad dns_events");
  }
  if (!(in >> key >> stats.nxdomain_events) || key != "nxdomain_events") {
    corrupt_payload(path, "trace-stats: bad nxdomain_events");
  }
  if (!(in >> key >> stats.flow_events) || key != "flow_events") {
    corrupt_payload(path, "trace-stats: bad flow_events");
  }
  return stats;
}

std::string domain_list_payload(const std::vector<std::string>& domains) {
  std::string out = "domains " + std::to_string(domains.size()) + "\n";
  for (const auto& domain : domains) {
    out += domain;
    out += '\n';
  }
  return out;
}

std::vector<std::string> parse_domain_list(std::string_view payload, const std::string& path) {
  std::istringstream in{std::string{payload}};
  std::string key;
  std::size_t count = 0;
  if (!(in >> key >> count) || key != "domains") {
    corrupt_payload(path, "domain-list: bad header");
  }
  std::vector<std::string> out;
  out.reserve(count);
  std::string domain;
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> domain)) corrupt_payload(path, "domain-list: truncated");
    out.push_back(domain);
  }
  return out;
}

// -------------------------------------------------------------- manifest

struct ManifestEntry {
  std::string file;
  std::string digest;
};

struct StageRecord {
  std::string name;
  std::vector<ManifestEntry> artifacts;
};

struct Manifest {
  std::string config_hash;
  /// Supervised shard tasks that exhausted retries (sorted task names,
  /// e.g. "behavior.query.s1"); their stage's artifacts are partial.
  std::vector<std::string> quarantined;
  std::vector<StageRecord> stages;
};

constexpr const char* kManifestFile = "manifest.run";

std::string manifest_payload(const Manifest& manifest) {
  std::string out = "config " + manifest.config_hash + "\n";
  for (const auto& task : manifest.quarantined) {
    out += "quarantined " + task + "\n";
  }
  for (const auto& stage : manifest.stages) {
    out += "stage " + stage.name + " " + std::to_string(stage.artifacts.size()) + "\n";
    for (const auto& entry : stage.artifacts) {
      out += "artifact " + entry.file + " " + entry.digest + "\n";
    }
  }
  return out;
}

Manifest parse_manifest_payload(const std::string& payload, const std::string& path) {
  std::istringstream in{payload};
  Manifest manifest;
  std::string word;
  if (!(in >> word >> manifest.config_hash) || word != "config" ||
      manifest.config_hash.size() != 16) {
    corrupt_payload(path, "manifest: bad config line");
  }
  while (in >> word) {
    if (word == "quarantined") {
      std::string task;
      if (!(in >> task) || !manifest.stages.empty()) {
        corrupt_payload(path, "manifest: bad quarantined line");
      }
      manifest.quarantined.push_back(std::move(task));
      continue;
    }
    if (word != "stage") corrupt_payload(path, "manifest: expected stage record");
    StageRecord record;
    std::size_t count = 0;
    if (!(in >> record.name >> count)) corrupt_payload(path, "manifest: bad stage header");
    for (std::size_t i = 0; i < count; ++i) {
      ManifestEntry entry;
      if (!(in >> word >> entry.file >> entry.digest) || word != "artifact" ||
          entry.digest.size() != 16) {
        corrupt_payload(path, "manifest: bad artifact row");
      }
      record.artifacts.push_back(std::move(entry));
    }
    manifest.stages.push_back(std::move(record));
  }
  return manifest;
}

void save_manifest(const std::string& workdir, const Manifest& manifest) {
  util::save_artifact(join(workdir, kManifestFile), "run-manifest",
                      manifest_payload(manifest));
}

/// Manifest from a previous run, if one exists and validates; nullopt when
/// there is nothing trustworthy to resume from (no manifest yet, torn
/// container, unparseable payload). A manifest that exists but cannot be
/// OPENED — permissions, EIO, a directory where the file should be — is a
/// real input error and propagates as fsio::IoError (filename + errno), so
/// the CLI reports it on exit 3 instead of silently recomputing over a
/// workdir it cannot trust.
std::optional<Manifest> try_load_manifest(const std::string& workdir) {
  const auto path = join(workdir, kManifestFile);
  try {
    return parse_manifest_payload(util::load_artifact(path, "run-manifest"), path);
  } catch (const util::CorruptArtifact& e) {
    util::log_warn() << "run: manifest corrupt (" << e.reason() << "); starting fresh";
    return std::nullopt;
  } catch (const util::fsio::IoError& e) {
    if (e.error_code() == ENOENT) return std::nullopt;  // first run
    throw;
  }
}

// ------------------------------------------------------------ validation

std::string file_digest(const std::string& bytes) {
  return util::hex64(util::xxhash64(bytes));
}

/// A recorded stage is reusable iff its artifact list matches the spec and
/// every file is present, digest-identical, and (for containers) passes
/// full container validation.
bool stage_artifacts_valid(const std::string& workdir, const StageRecord& record,
                           const StageSpec& spec) {
  if (record.artifacts.size() != spec.artifacts.size()) return false;
  for (std::size_t i = 0; i < spec.artifacts.size(); ++i) {
    const auto& want = spec.artifacts[i];
    const auto& have = record.artifacts[i];
    if (have.file != want.file) return false;
    const auto path = join(workdir, want.file);
    std::string bytes;
    try {
      bytes = util::fsio::read_file(path);
    } catch (const util::fsio::IoError&) {
      return false;  // missing or unreadable -> recompute
    }
    if (file_digest(bytes) != have.digest) {
      util::fsio::note_corrupt_detected();
      util::log_warn() << "run: artifact " << path << " digest mismatch; recomputing stage '"
                       << record.name << "'";
      return false;
    }
    if (want.kind != nullptr) {
      try {
        util::validate_artifact_bytes(bytes, want.kind, path);
      } catch (const util::CorruptArtifact& e) {
        util::log_warn() << "run: artifact " << path << " corrupt (" << e.reason()
                         << "); recomputing stage '" << record.name << "'";
        return false;
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- watchdog

/// One stage's deadline. Cancellation is cooperative: the stage driver
/// calls check() between tasks, at task substeps and after every artifact
/// commit, and the supervisor calls it on every scheduling round (atomic
/// artifact writes mean cancellation never leaves torn files). There is no
/// timer thread, so none is alive when the supervisor forks.
class StageWatchdog {
 public:
  StageWatchdog(const char* stage, double seconds) : stage_{stage} {
    if (seconds > 0.0) {
      deadline_ = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>{seconds});
    }
  }

  void check() const {
    if (expired_ || (deadline_ && Clock::now() >= *deadline_)) {
      throw StageDeadlineExceeded{stage_};
    }
  }

  /// Test hook: make the next check() throw, exactly as if the deadline
  /// had passed — a deterministic mid-stage deadline for the resumability
  /// regression test.
  void force_expire() noexcept { expired_ = true; }

 private:
  using Clock = std::chrono::steady_clock;
  std::string stage_;
  std::optional<Clock::time_point> deadline_;
  bool expired_ = false;
};

// ------------------------------------------------------------ stage table

using Checkpoint = std::function<void()>;

/// One row of the stage table: the tasks that write the stage's artifacts,
/// declared once for every executor, and an optional parent-side join that
/// runs after every task finished.
struct Stage {
  const StageSpec& spec;
  std::vector<WorkerTask> tasks;
  std::function<void()> join;
};

/// One similarity channel: its bipartite input, similarity CSR and
/// embedding artifacts, and its projection options. The row index is the
/// channel's LINE seed offset (seed, seed+1, seed+2).
struct ChannelSpec {
  const char* name;       // task-name component ("behavior.<name>.s<k>", "embed.<name>")
  const char* input;      // pruned bipartite artifact
  const char* csr;        // similarity CSR artifact
  const char* embedding;  // embedding arena artifact
  graph::ProjectionOptions BehaviorModelConfig::*projection;
};

constexpr ChannelSpec kChannels[] = {
    {"query", "hdbg.bg", "query_sim.csr", "query.emb", &BehaviorModelConfig::query_projection},
    {"ip", "dibg.bg", "ip_sim.csr", "ip.emb", &BehaviorModelConfig::ip_projection},
    {"temporal", "dtbg.bg", "temporal_sim.csr", "temporal.emb",
     &BehaviorModelConfig::temporal_projection},
};

/// What the stage table's task bodies read. Copies share the referenced
/// objects, so the bodies capture it by value.
struct TableContext {
  ArtifactStore& store;
  const PipelineConfig& config;
  /// Also fed every trace event (run_pipeline callers that need the raw
  /// log or netflow); null for durable runs.
  trace::TraceSink* observer;
  /// Projection pair-shards per channel; more than one writes partials
  /// under sv/ that the behavior join merges.
  std::size_t shard_count;
  /// Sorted quarantined task names, final once the behavior stage is done.
  const std::vector<std::string>& quarantined;
};

graph::BipartiteGraph load_bipartite(const ArtifactStore& store, const char* file) {
  return store.load(file, graph::kBipartiteKind, graph::parse_bipartite_payload);
}

/// Deterministic merge of per-shard partial projections into the
/// channel's final CSR. Shards partition the PAIR space disjointly and each
/// emits exact similarities over the full vertex set in identical id
/// order, so the merged edge list is the concatenation, and one global
/// (u, v) sort reproduces the exact emission order of an unsharded
/// projection — the merged artifact is byte-identical to a one-shard run.
/// Quarantined shards are simply absent: their pairs are missing and the
/// report is flagged as partial.
void merge_channel_shards(ArtifactStore& store, const ChannelSpec& channel,
                          const std::vector<std::string>& partial_files) {
  std::vector<graph::WeightedEdge> edges;
  std::vector<std::string> names;
  for (const auto& partial : partial_files) {
    names = store.load(partial, util::kCsrGraphKind,
                       [&edges](std::string_view bytes, const std::string& path) {
                         const auto part = util::CsrGraph::from_payload(bytes, path);
                         for (std::size_t e = 0; e < part.edge_count(); ++e) {
                           edges.push_back({part.edge_u()[e], part.edge_v()[e], part.edge_w()[e]});
                         }
                         return part.names_copy();
                       });
  }
  // All shards quarantined: an edgeless graph over the pruned vertex set
  // keeps downstream stages well-formed (isolated vertices are legal).
  if (partial_files.empty()) names = load_bipartite(store, channel.input).right_names().names();
  std::sort(edges.begin(), edges.end(), [](const graph::WeightedEdge& a,
                                           const graph::WeightedEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<std::uint32_t> edge_u;
  std::vector<std::uint32_t> edge_v;
  std::vector<double> edge_w;
  for (const auto& e : edges) {
    edge_u.push_back(e.u);
    edge_v.push_back(e.v);
    edge_w.push_back(e.weight);
  }
  store.put(channel.csr, util::kCsrGraphKind,
            util::CsrGraph::build(names.size(), edge_u, edge_v, edge_w, names).payload());
}

std::vector<std::string> load_kept_domains(const ArtifactStore& store) {
  return store.load("kept.domains", "domain-list", parse_domain_list);
}

/// Decode a run's artifacts, trace through labels, into the result the
/// report is written from. Everything comes from the store; nothing is
/// carried in memory from earlier stages.
PipelineResult load_result(const ArtifactStore& store) {
  PipelineResult result;
  result.trace.truth = store.load("truth.gt", "ground-truth", trace::parse_ground_truth_payload);
  const auto stats = store.load("trace.stats", "trace-stats", parse_trace_stats);
  result.trace.dns_events = stats.dns_events;
  result.trace.nxdomain_events = stats.nxdomain_events;
  result.trace.flow_events = stats.flow_events;
  result.model.kept_domains = load_kept_domains(store);
  const auto similarity = [&](const char* file) {
    return store.load(file, util::kCsrGraphKind, [](std::string_view bytes, const auto& path) {
      return graph::from_csr(util::CsrGraph::from_payload(bytes, path));
    });
  };
  result.model.query_similarity = similarity("query_sim.csr");
  result.model.ip_similarity = similarity("ip_sim.csr");
  result.model.temporal_similarity = similarity("temporal_sim.csr");
  const auto embedding = [&](const char* file) {
    return store.load(file, util::kDenseMatrixKind, embed::EmbeddingMatrix::parse_arena_payload);
  };
  result.query_embedding = embedding("query.emb");
  result.ip_embedding = embedding("ip.emb");
  result.temporal_embedding = embedding("temporal.emb");
  result.combined_embedding = embedding("combined.emb");
  result.labels = store.load("labeled.set", "labeled-set", intel::parse_labeled_payload);
  return result;
}

/// The labeled set's composition by campaign archetype (scenario.*
/// namespace; detection-side gauges are published by evaluate_scenarios).
void publish_label_gauges(const intel::LabeledSet& labels) {
  std::map<std::string, std::size_t> per_scenario;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels.labels[i] != 1) continue;
    const std::string_view tag = labels.scenario(i);
    per_scenario[tag.empty() ? "unknown" : std::string{tag}] += 1;
  }
  for (const auto& [tag, count] : per_scenario) {
    obs::metrics().gauge("scenario." + tag + ".domains").set(static_cast<std::int64_t>(count));
  }
}

/// Report-stage work: per-channel SVM evaluation + clustering over the
/// stored artifacts. `quarantined` non-empty appends a degraded-run
/// section, so a clean supervised run emits byte-identical bytes to an
/// inline one.
void write_report(ArtifactStore& store, const PipelineConfig& config,
                  const std::vector<std::string>& quarantined, const Checkpoint& checkpoint) {
  const PipelineResult result = load_result(store);
  checkpoint();
  const auto evals = evaluate_channels(result, config);
  checkpoint();
  const auto clusters = cluster_domains(result.combined_embedding, result.model.kept_domains,
                                        result.trace.truth, config.xmeans);
  checkpoint();
  std::ostringstream report;
  write_detection_report(report, result, evals, clusters);
  if (!quarantined.empty()) {
    report << "\n## Degraded run\n\n"
           << quarantined.size()
           << " shard task(s) exhausted their retry budget and were quarantined; the "
              "similarity graphs and everything derived from them are partial:\n\n";
    for (const auto& task : quarantined) report << "- `" << task << "`\n";
  }
  store.put("report.md", "", report.str());
}

/// The paper's pipeline as one table of five stages. Every task body reads
/// its inputs from ctx.store and writes its outputs there, whichever
/// executor runs it.
std::vector<Stage> pipeline_stages(const TableContext& ctx) {
  const auto& specs = stage_specs();
  ArtifactStore& store = ctx.store;
  /// Every artifact of a stage, for a task that writes them all.
  const auto spec_outputs = [&](const StageSpec& spec) {
    std::vector<WorkerTask::Output> outputs;
    for (const auto& artifact : spec.artifacts) {
      outputs.push_back({store.path(artifact.file), artifact.kind});
    }
    return outputs;
  };
  const auto shard_task = [](const ChannelSpec& channel, std::size_t s) {
    return std::string{"behavior."} + channel.name + ".s" + std::to_string(s);
  };
  // One shard writes the channel's final CSR itself; more write partials
  // into the supervisor's scratch directory. Captures ctx by value: the
  // behavior join keeps a copy of this lambda after this function returns.
  const auto shard_file = [ctx](const ChannelSpec& channel, std::size_t s) {
    return ctx.shard_count == 1
               ? std::string{channel.csr}
               : std::string{"sv/"} + channel.name + ".s" + std::to_string(s) + ".csr";
  };

  std::vector<Stage> stages;

  // trace: synthesize the campus capture into the three bipartite graphs,
  // pruned by the paper's rules (so every projection task loads its graph
  // as is), plus the kept domains and the ground-truth registry.
  stages.push_back(
      {specs[0],
       {{.name = "trace",
         .outputs = spec_outputs(specs[0]),
         .body = [ctx](const Checkpoint& checkpoint) {
           GraphBuilderSink graphs;
           std::vector<trace::TraceSink*> sinks{&graphs};
           if (ctx.observer != nullptr) sinks.push_back(ctx.observer);
           trace::TeeSink tee{sinks};
           const auto trace_result = trace::generate_trace(ctx.config.trace, tee);
           checkpoint();
           const auto model = prune_behavior_graphs(graphs.take_hdbg(), graphs.take_dibg(),
                                                    graphs.take_dtbg(), ctx.config.behavior.prune);
           ctx.store.put("hdbg.bg", graph::kBipartiteKind, graph::bipartite_payload(model.hdbg));
           ctx.store.put("dibg.bg", graph::kBipartiteKind, graph::bipartite_payload(model.dibg));
           ctx.store.put("dtbg.bg", graph::kBipartiteKind, graph::bipartite_payload(model.dtbg));
           ctx.store.put("kept.domains", "domain-list", domain_list_payload(model.kept_domains));
           ctx.store.put("truth.gt", "ground-truth",
                         trace::ground_truth_payload(trace_result.truth));
           ctx.store.put("trace.stats", "trace-stats",
                         trace_stats_payload({trace_result.dns_events,
                                              trace_result.nxdomain_events,
                                              trace_result.flow_events}));
         }}},
       {}});

  // behavior: project the pruned bipartite graphs, one task per channel
  // pair-shard. Quarantined shards leave their pairs out and flag the run.
  stages.push_back({specs[1], {}, {}});
  for (const auto& channel : kChannels) {
    for (std::size_t s = 0; s < ctx.shard_count; ++s) {
      const auto file = shard_file(channel, s);
      // Only sv/ partials are reusable: the scratch config hash gates them,
      // while final artifacts are reused at stage granularity.
      stages.back().tasks.push_back(
          {.name = shard_task(channel, s),
           .quarantinable = true,
           .reusable = ctx.shard_count > 1,
           .outputs = {{store.path(file), "csr-graph"}},
           .body = [ctx, channel, file, s](const Checkpoint& checkpoint) {
             const std::string span_name = std::string{"behavior.project."} + channel.name;
             obs::Span span{span_name.c_str()};
             graph::ProjectionOptions proj = ctx.config.behavior.*channel.projection;
             proj.threads = ctx.config.projection_threads;
             proj.mode = ctx.config.projection_mode;
             proj.sketch = ctx.config.sketch;
             proj.pair_shard_index = s;
             proj.pair_shard_count = ctx.shard_count;
             const auto pruned = load_bipartite(ctx.store, channel.input);
             checkpoint();
             ctx.store.put(file, util::kCsrGraphKind,
                           graph::to_csr(graph::project_right(pruned, proj)).payload());
           }});
    }
  }
  stages.back().join = [ctx, shard_task, shard_file] {
    for (const auto& channel : kChannels) {
      std::vector<std::string> partials;
      for (std::size_t s = 0; s < ctx.shard_count; ++s) {
        if (!std::binary_search(ctx.quarantined.begin(), ctx.quarantined.end(),
                                shard_task(channel, s))) {
          partials.push_back(shard_file(channel, s));
        }
      }
      if (ctx.shard_count > 1 || partials.empty()) {
        merge_channel_shards(ctx.store, channel, partials);
      }
    }
  };

  // embed: one LINE embedding per similarity graph, then the concatenated
  // vector. LINE's edge sampler reads the CSR sections in place (mapped
  // from the file in a durable run). LINE is bit-deterministic at any
  // thread count, so worker placement cannot change the arenas.
  stages.push_back({specs[2], {}, {}});
  for (std::size_t c = 0; c < std::size(kChannels); ++c) {
    const ChannelSpec channel = kChannels[c];
    stages.back().tasks.push_back(
        {.name = std::string{"embed."} + channel.name,
         .outputs = {{store.path(channel.embedding), "embedding-arena"}},
         .body = [ctx, channel, c](const Checkpoint& checkpoint) {
           embed::EmbedConfig embed_config = ctx.config.embedding;
           embed_config.dimension = ctx.config.embedding_dimension;
           embed_config.seed = ctx.config.seed + c;
           checkpoint();
           // The CSR's sections are read in place, not copied.
           const auto embedding = ctx.store.load(
               channel.csr, util::kCsrGraphKind, [&](std::string_view bytes, const auto& path) {
                 return embed::embed_graph(util::CsrGraph::from_payload(bytes, path), embed_config);
               });
           ctx.store.put(channel.embedding, util::kDenseMatrixKind, embedding.arena_payload());
         }});
  }
  stages.back().join = [ctx] {
    std::vector<embed::EmbeddingMatrix> parts;
    for (const auto& channel : kChannels) {
      parts.push_back(ctx.store.load(channel.embedding, util::kDenseMatrixKind,
                                     embed::EmbeddingMatrix::parse_arena_payload));
    }
    ctx.store.put("combined.emb", util::kDenseMatrixKind,
                  embed::EmbeddingMatrix::concat(load_kept_domains(ctx.store),
                                                 {&parts[0], &parts[1], &parts[2]})
                      .arena_payload());
  };

  // labels: ground truth + simulated VirusTotal over the kept domains.
  stages.push_back(
      {specs[3],
       {{.name = "labels",
         .outputs = spec_outputs(specs[3]),
         .body = [ctx](const Checkpoint& checkpoint) {
           const auto truth =
               ctx.store.load("truth.gt", "ground-truth", trace::parse_ground_truth_payload);
           const auto kept = load_kept_domains(ctx.store);
           checkpoint();
           const intel::VirusTotalSim vt{truth, ctx.config.virustotal};
           const auto labels = intel::build_labeled_set(kept, truth, vt, ctx.config.labeling);
           publish_label_gauges(labels);
           ctx.store.put("labeled.set", "labeled-set", intel::labeled_payload(labels));
         }}},
       {}});

  // report: the quarantine list is final when this body runs, since the
  // behavior stage (the only producer of quarantinable tasks) is done.
  stages.push_back({specs[4],
                    {{.name = "report",
                      .outputs = spec_outputs(specs[4]),
                      .body = [ctx](const Checkpoint& checkpoint) {
                        write_report(ctx.store, ctx.config, ctx.quarantined, checkpoint);
                      }}},
                    {}});
  return stages;
}

/// The inline executor: a stage's tasks in order in this process, each
/// under a span named after the task, then the stage's join.
void run_inline(const Stage& stage, const Checkpoint& check) {
  for (const auto& task : stage.tasks) {
    check();
    obs::Span task_span{task.name.c_str()};
    task.body(check);
  }
  if (stage.join) stage.join();
}

// ---------------------------------------------------------- stage driver

/// Durable executor: runs or resumes each stage against the workdir, then
/// commits its artifacts into the manifest.
class StageDriver {
 public:
  /// `supervisor` selects the executor: non-null forks each stage's tasks
  /// under it, null runs them in order in this process.
  StageDriver(const RunOptions& options, Manifest manifest, Supervisor* supervisor)
      : options_{options}, manifest_{std::move(manifest)}, supervisor_{supervisor} {}

  /// Run or skip one stage.
  void stage(const Stage& stage, RunSummary& summary) {
    const StageSpec& spec = stage.spec;
    util::Stopwatch watch;
    if (const auto* record = reusable_record(spec.name)) {
      if (stage_artifacts_valid(options_.workdir, *record, spec)) {
        obs::metrics().counter("pipeline.stage.resumed").add(1);
        ++summary.resumed_stages;
        summary.stages.push_back({spec.name, true, watch.seconds()});
        util::log_info() << "run: stage '" << spec.name << "' resumed from artifacts";
        completed_.push_back(*record);
        // A resumed stage carries its quarantine flags forward: the
        // partial artifacts are being reused as-is, so the report stays
        // flagged until the stage is actually recomputed.
        for (const auto& task : manifest_.quarantined) {
          if (task.rfind(std::string{spec.name} + ".", 0) == 0) {
            quarantined_.push_back(task);
          }
        }
        return;
      }
    }
    obs::StageSpan span{std::string{"pipeline."} + spec.name};
    StageWatchdog watchdog{spec.name, options_.stage_deadline_seconds};
    watchdog.check();
    pending_.clear();
    try {
      execute(stage, watchdog);
    } catch (...) {
      // Mid-stage abort (deadline, I/O failure, supervisor giving up):
      // persist the completed-stage prefix so the on-disk manifest always
      // matches this run's config and exactly the stages that finished —
      // a later --resume then trusts precisely what this run produced and
      // recomputes only the stage that was in flight. Best-effort: if even
      // the manifest cannot be written, the original error wins.
      try {
        save_manifest(options_.workdir, {config_hash(), quarantined_, completed_});
      } catch (...) {
      }
      throw;
    }
    completed_.push_back({spec.name, std::move(pending_)});
    pending_ = {};
    // Rewrite the manifest after every stage: a crash between stages loses
    // at most the stage in flight.
    save_manifest(options_.workdir, {config_hash(), quarantined_, completed_});
    summary.stages.push_back({spec.name, false, watch.seconds()});
    util::log_info() << "run: stage '" << spec.name << "' completed in " << watch.seconds()
                     << "s";
  }

  std::string config_hash() const { return hash_pipeline_config(options_.config); }

  /// Sorted names of the shard tasks quarantined so far (this run's and
  /// those carried forward from resumed stages).
  const std::vector<std::string>& quarantined() const noexcept { return quarantined_; }

 private:
  /// Run the stage's tasks on the executor, then its join, then commit
  /// every artifact of its spec in spec order. This is the only commit
  /// path, so the crash and deadline test hooks fire here for both
  /// executors.
  void execute(const Stage& stage, StageWatchdog& watchdog) {
    const auto check = [&watchdog] { watchdog.check(); };
    if (supervisor_ != nullptr) {
      const std::size_t before = supervisor_->stats().quarantined.size();
      supervisor_->run_tasks(stage.tasks, check);
      const auto& all = supervisor_->stats().quarantined;
      quarantined_.insert(quarantined_.end(),
                          all.begin() + static_cast<std::ptrdiff_t>(before), all.end());
      std::sort(quarantined_.begin(), quarantined_.end());
      if (stage.join) stage.join();
    } else {
      run_inline(stage, check);
    }
    for (const auto& artifact : stage.spec.artifacts) committed(artifact.file, watchdog);
  }

  /// Record a just-committed artifact's digest, fire the test hooks, and
  /// poll the deadline.
  void committed(const char* file, StageWatchdog& watchdog) {
    const auto path = join(options_.workdir, file);
    pending_.push_back({file, file_digest(util::fsio::read_file(path))});
    if (!options_.crash_after_artifact.empty() && options_.crash_after_artifact == file) {
      util::log_warn() << "run: crash hook firing after " << file;
      std::_Exit(137);
    }
    if (!options_.expire_deadline_after_artifact.empty() &&
        options_.expire_deadline_after_artifact == file) {
      util::log_warn() << "run: deadline hook firing after " << file;
      watchdog.force_expire();
    }
    watchdog.check();
  }

  /// The previous run's record for this stage, when resume applies to it.
  const StageRecord* reusable_record(const char* name) const {
    if (!options_.resume) return nullptr;
    if (manifest_.config_hash != config_hash()) return nullptr;
    // Stages are only reusable in prefix order behind already-valid ones:
    // a recomputed earlier stage is deterministic, so identical artifacts
    // keep later digests valid — but a *failed* validation earlier means
    // later stages were built from inputs we no longer trust.
    const std::size_t position = completed_.size();
    if (position >= manifest_.stages.size()) return nullptr;
    if (manifest_.stages[position].name != name) return nullptr;
    for (std::size_t i = 0; i < position; ++i) {
      if (completed_[i].name != manifest_.stages[i].name ||
          !equal_entries(completed_[i].artifacts, manifest_.stages[i].artifacts)) {
        return nullptr;
      }
    }
    return &manifest_.stages[position];
  }

  static bool equal_entries(const std::vector<ManifestEntry>& a,
                            const std::vector<ManifestEntry>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].file != b[i].file || a[i].digest != b[i].digest) return false;
    }
    return true;
  }

  const RunOptions& options_;
  Manifest manifest_;                  // from the previous run (may be empty)
  Supervisor* supervisor_;             // null = inline executor
  std::vector<StageRecord> completed_; // this run, in order
  std::vector<ManifestEntry> pending_; // artifacts of the stage in flight
  std::vector<std::string> quarantined_;  // sorted quarantined task names
};

}  // namespace

// ---------------------------------------------------------- config hash

std::string hash_pipeline_config(const PipelineConfig& config) {
  std::ostringstream out;
  out.precision(17);
  out << "run-config 4";
  out << " trace=" << config.trace.seed << ',' << config.trace.campaign_seed << ','
      << config.trace.hosts << ',' << config.trace.days << ',' << config.trace.benign_sites
      << ',' << config.trace.malware_families;
  // Adversarial-scenario knobs change the emitted trace, so they must
  // invalidate resumed stages exactly like the base trace shape does.
  out << " adv=" << config.trace.zero_day_families << ','
      << config.trace.zero_day_activation_day << ',' << config.trace.zero_day_ip_reuse_fraction
      << ',' << config.trace.evasion_families << ',' << config.trace.evasion_mimicry_rate << ','
      << config.trace.evasion_cover_sites << ',' << config.trace.iot_host_fraction << ','
      << config.trace.iot_vendor_domains << ',' << config.trace.iot_burst_period_hours;
  out << " prune=" << config.behavior.prune.min_left_degree << ','
      << config.behavior.prune.max_left_fraction;
  out << " proj=" << config.behavior.query_projection.min_similarity << ','
      << config.behavior.ip_projection.min_similarity << ','
      << config.behavior.temporal_projection.min_similarity;
  // The backend and sketch parameters change which edges the similarity
  // graphs contain, so a mode/parameter switch must invalidate resumed
  // stages (projection_threads, by contrast, is output-neutral).
  out << " projmode=" << static_cast<int>(config.projection_mode) << ','
      << config.sketch.signature_size << ',' << config.sketch.bands << ','
      << config.sketch.bits << ',' << config.sketch.top_k << ',' << config.sketch.seed;
  out << " embed=" << static_cast<int>(config.embedding.method) << ','
      << config.embedding_dimension << ',' << config.embedding.line.total_samples << ','
      << config.seed;
  out << " labeling=" << config.labeling.malicious_fraction << ',' << config.labeling.seed;
  out << " svm=" << static_cast<int>(config.svm.kernel) << ',' << config.svm.c << ','
      << config.svm.gamma << ',' << config.kfold;
  out << " xmeans=" << config.xmeans.k_min << ',' << config.xmeans.k_max << ','
      << config.xmeans.seed;
  return util::hex64(util::xxhash64(out.str()));
}

// ------------------------------------------------------------------ run

RunSummary run_resumable(const RunOptions& options) {
  if (options.workdir.empty()) throw std::invalid_argument{"run_resumable: empty workdir"};
  obs::StageSpan run_span{"pipeline.run"};
  util::fsio::create_directories(options.workdir);

  Manifest previous;
  if (options.resume) {
    if (auto loaded = try_load_manifest(options.workdir)) previous = std::move(*loaded);
  }
  std::optional<Supervisor> supervisor;
  if (options.supervise.workers > 0) {
    supervisor.emplace(options.workdir, options.supervise);
    supervisor->reset_scratch(hash_pipeline_config(options.config), options.resume);
  }
  StageDriver driver{options, std::move(previous), supervisor ? &*supervisor : nullptr};
  ArtifactStore store{options.workdir};
  // Inline, sketched (not pair-shardable) and --shards 1 runs have one
  // projection shard per channel.
  const std::size_t shard_count =
      !supervisor || options.config.projection_mode == graph::ProjectionMode::kSketched
          ? 1
          : std::max<std::size_t>(1, options.supervise.projection_shards);
  const auto stages =
      pipeline_stages({store, options.config, nullptr, shard_count, driver.quarantined()});

  RunSummary summary;
  summary.report_path = store.path("report.md");
  for (const auto& stage : stages) driver.stage(stage, summary);
  if (supervisor) summary.supervision = supervisor->stats();
  summary.quarantined = driver.quarantined();
  return summary;
}

PipelineResult run_pipeline(const PipelineConfig& config, trace::TraceSink* observer) {
  obs::StageSpan run_span{"pipeline.run"};
  ArtifactStore store{""};
  const std::vector<std::string> quarantined;
  for (const auto& stage : pipeline_stages({store, config, observer, 1, quarantined})) {
    // Detection and clustering are the caller's per-experiment variables.
    if (std::string_view{stage.spec.name} == "report") break;
    obs::StageSpan span{std::string{"pipeline."} + stage.spec.name};
    run_inline(stage, [] {});
  }
  PipelineResult result = load_result(store);
  result.model.hdbg = load_bipartite(store, "hdbg.bg");
  result.model.dibg = load_bipartite(store, "dibg.bg");
  result.model.dtbg = load_bipartite(store, "dtbg.bg");
  return result;
}

ChannelEvaluations evaluate_channels(const PipelineResult& result,
                                     const PipelineConfig& config) {
  obs::StageSpan span{"pipeline.svm"};
  ChannelEvaluations evals;
  const auto run = [&](const char* channel, const embed::EmbeddingMatrix& embedding) {
    OBS_SPAN(channel);
    return evaluate_svm(make_dataset(embedding, result.labels), config.svm, config.kfold,
                        config.seed);
  };
  evals.query = run("pipeline.svm.query", result.query_embedding);
  evals.ip = run("pipeline.svm.ip", result.ip_embedding);
  evals.temporal = run("pipeline.svm.temporal", result.temporal_embedding);
  evals.combined = run("pipeline.svm.combined", result.combined_embedding);
  return evals;
}

}  // namespace dnsembed::core
