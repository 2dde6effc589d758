#include "core/run.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

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
       {{"hdbg.bg", "bipartite-graph"},
        {"dibg.bg", "bipartite-graph"},
        {"dtbg.bg", "bipartite-graph"},
        {"truth.gt", "ground-truth"},
        {"trace.stats", "trace-stats"}}},
      {"behavior",
       {{"kept.domains", "domain-list"},
        {"query_sim.csr", "csr-graph"},
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

TraceStats parse_trace_stats(const std::string& payload, const std::string& path) {
  std::istringstream in{payload};
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

std::vector<std::string> parse_domain_list(const std::string& payload, const std::string& path) {
  std::istringstream in{payload};
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

/// Arms a deadline timer for one stage. Cancellation is cooperative: the
/// stage driver polls expired() at artifact commits and substep boundaries
/// (atomic artifact writes mean cancellation never leaves torn files).
class StageWatchdog {
 public:
  StageWatchdog(const char* stage, double seconds) : stage_{stage} {
    if (seconds <= 0.0) return;
    const auto budget = std::chrono::duration<double>{seconds};
    timer_ = std::thread{[this, budget] {
      std::unique_lock lock{mutex_};
      if (!cv_.wait_for(lock, budget, [this] { return disarmed_; })) {
        expired_.store(true, std::memory_order_relaxed);
      }
    }};
  }

  ~StageWatchdog() {
    {
      std::lock_guard lock{mutex_};
      disarmed_ = true;
    }
    cv_.notify_all();
    if (timer_.joinable()) timer_.join();
  }

  void check() const {
    if (expired_.load(std::memory_order_relaxed)) throw StageDeadlineExceeded{stage_};
  }

  /// Test hook: make the next check() throw, exactly as if the timer had
  /// fired — a deterministic mid-stage deadline for the resumability
  /// regression test.
  void force_expire() noexcept { expired_.store(true, std::memory_order_relaxed); }

 private:
  std::string stage_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::atomic<bool> expired_{false};
  std::thread timer_;
};

// ------------------------------------------------------------ stage table

/// One row of the stage table: the tasks that write the stage's artifacts,
/// declared once for both executors, and an optional parent-side join that
/// runs after every task finished.
struct Stage {
  const StageSpec& spec;
  std::vector<WorkerTask> tasks;
  std::function<void()> join;
};

// ---------------------------------------------------------- stage driver

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
    obs::StageSpan span{std::string{"run."} + spec.name};
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
    } else {
      for (const auto& task : stage.tasks) {
        check();
        obs::Span task_span{task.name.c_str()};
        task.body(check);
      }
    }
    if (stage.join) stage.join();
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

// ------------------------------------------------------------ stage work

/// One similarity channel: its bipartite input, similarity CSR and
/// embedding artifacts, and its projection options. The row index is the
/// channel's LINE seed offset (seed, seed+1, seed+2 as in run_pipeline).
struct ChannelSpec {
  const char* name;       // task-name component ("behavior.<name>.s<k>", "embed.<name>")
  const char* input;      // bipartite input artifact
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

/// The channel's bipartite graph after the paper's pruning rules (defined
/// on host behavior, i.e. on the HDBG). Each projection task recomputes
/// this independently from the trace artifacts (forked workers share no
/// memory); the pruning is deterministic, so every task filters the
/// identical vertex set.
graph::BipartiteGraph pruned_channel_graph(const std::string& workdir,
                                           const ChannelSpec& channel,
                                           const PipelineConfig& config) {
  auto hdbg = graph::load_bipartite_file(join(workdir, "hdbg.bg"));
  const auto keep_mask = graph::right_degree_keep_mask(hdbg, config.behavior.prune);
  if (std::string_view{channel.input} == "hdbg.bg") return hdbg.filter_right(keep_mask);
  std::unordered_set<std::string> kept;
  for (graph::VertexId r = 0; r < hdbg.right_count(); ++r) {
    if (keep_mask[r]) kept.insert(hdbg.right_names().name(r));
  }
  auto g = graph::load_bipartite_file(join(workdir, channel.input));
  std::vector<bool> mask(g.right_count(), false);
  for (graph::VertexId r = 0; r < g.right_count(); ++r) {
    mask[r] = kept.contains(g.right_names().name(r));
  }
  return g.filter_right(mask);
}

/// Deterministic size-aware merge of per-shard partial projections into the
/// channel's final CSR. Shards partition the PAIR space disjointly and each
/// emits exact similarities over the full vertex set, so the merged edge
/// list is the concatenation (reserved to total size up front), and one
/// global (u, v) sort reproduces the exact emission order of an unsharded
/// projection — the merged artifact is byte-identical to a one-shard run.
/// Quarantined shards are simply absent: their pairs are missing and the
/// report is flagged as partial.
void merge_channel_shards(const std::string& workdir, const ChannelSpec& channel,
                          const PipelineConfig& config,
                          const std::vector<std::string>& partial_paths) {
  std::vector<graph::WeightedGraph> parts;
  parts.reserve(partial_paths.size());
  std::size_t total = 0;
  for (const auto& partial : partial_paths) {
    parts.push_back(graph::from_csr(graph::load_csr_file(partial)));
    total += parts.back().edge_count();
  }
  std::vector<graph::WeightedEdge> edges;
  edges.reserve(total);
  for (const auto& part : parts) {
    const auto span = part.edges();
    edges.insert(edges.end(), span.begin(), span.end());
  }
  std::sort(edges.begin(), edges.end(), [](const graph::WeightedEdge& a,
                                           const graph::WeightedEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });

  graph::WeightedGraph merged;
  if (!parts.empty()) {
    // Every partial carries the full vertex set in identical id order.
    const auto& names = parts.front().names();
    for (graph::VertexId v = 0; v < parts.front().vertex_count(); ++v) {
      merged.add_vertex(names.name(v));
    }
  } else {
    // All shards quarantined: an edgeless graph over the pruned vertex set
    // keeps downstream stages well-formed (isolated vertices are legal).
    const auto pruned = pruned_channel_graph(workdir, channel, config);
    for (graph::VertexId r = 0; r < pruned.right_count(); ++r) {
      merged.add_vertex(pruned.right_names().name(r));
    }
  }
  for (const auto& e : edges) merged.add_edge_unchecked(e.u, e.v, e.weight);
  graph::save_csr_file(join(workdir, channel.csr), merged);
}

/// Labels-stage work: ground truth + simulated VirusTotal over the kept
/// domains.
void write_labels_file(const std::string& workdir, const PipelineConfig& config,
                       const std::function<void()>& checkpoint) {
  const auto truth = trace::load_ground_truth_file(join(workdir, "truth.gt"));
  const auto kept =
      parse_domain_list(util::load_artifact(join(workdir, "kept.domains"), "domain-list"),
                        join(workdir, "kept.domains"));
  checkpoint();
  const intel::VirusTotalSim vt{truth, config.virustotal};
  intel::save_labeled_file(join(workdir, "labeled.set"),
                           intel::build_labeled_set(kept, truth, vt, config.labeling));
}

/// Report-stage work: per-channel SVM evaluation + clustering over the
/// persisted artifacts only (nothing carried in memory from earlier
/// stages). `quarantined` non-empty appends a degraded-run section, so a
/// clean supervised run emits byte-identical bytes to an inline one.
void write_report_file(const std::string& workdir, const PipelineConfig& config,
                       const std::vector<std::string>& quarantined,
                       const std::function<void()>& checkpoint) {
  const auto path = [&](const char* file) { return join(workdir, file); };
  PipelineResult result;
  result.trace.truth = trace::load_ground_truth_file(path("truth.gt"));
  const auto stats = parse_trace_stats(
      util::load_artifact(path("trace.stats"), "trace-stats"), path("trace.stats"));
  result.trace.dns_events = stats.dns_events;
  result.trace.nxdomain_events = stats.nxdomain_events;
  result.trace.flow_events = stats.flow_events;
  result.model.kept_domains = parse_domain_list(
      util::load_artifact(path("kept.domains"), "domain-list"), path("kept.domains"));
  result.model.query_similarity = graph::from_csr(graph::load_csr_file(path("query_sim.csr")));
  result.model.ip_similarity = graph::from_csr(graph::load_csr_file(path("ip_sim.csr")));
  result.model.temporal_similarity =
      graph::from_csr(graph::load_csr_file(path("temporal_sim.csr")));
  result.query_embedding = embed::EmbeddingMatrix::load_arena_file(path("query.emb"));
  result.ip_embedding = embed::EmbeddingMatrix::load_arena_file(path("ip.emb"));
  result.temporal_embedding = embed::EmbeddingMatrix::load_arena_file(path("temporal.emb"));
  result.combined_embedding = embed::EmbeddingMatrix::load_arena_file(path("combined.emb"));
  result.labels = intel::load_labeled_file(path("labeled.set"));
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
  util::fsio::atomic_write_file(path("report.md"), report.str());
}

}  // namespace

// ---------------------------------------------------------- config hash

std::string hash_pipeline_config(const PipelineConfig& config) {
  std::ostringstream out;
  out.precision(17);
  out << "run-config 3";
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
  obs::StageSpan run_span{"run.pipeline"};
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
  const auto& specs = stage_specs();
  const auto path = [&](const char* file) { return join(options.workdir, file); };
  /// Every artifact of a stage, for a task that writes them all.
  const auto spec_outputs = [&](const StageSpec& spec) {
    std::vector<WorkerTask::Output> outputs;
    for (const auto& artifact : spec.artifacts) {
      outputs.push_back({path(artifact.file), artifact.kind});
    }
    return outputs;
  };
  const PipelineConfig& config = options.config;
  using Checkpoint = std::function<void()>;

  // Projection pair-shards per channel. Inline, sketched (not
  // pair-shardable) and --shards 1 runs have one shard, which writes the
  // channel's final CSR itself; more shards write partials under sv/ that
  // the behavior join merges.
  const std::size_t shard_count =
      !supervisor || config.projection_mode == graph::ProjectionMode::kSketched
          ? 1
          : std::max<std::size_t>(1, options.supervise.projection_shards);
  const auto shard_task = [](const ChannelSpec& channel, std::size_t s) {
    return std::string{"behavior."} + channel.name + ".s" + std::to_string(s);
  };
  const auto shard_file = [&](const ChannelSpec& channel, std::size_t s) {
    return shard_count == 1 ? path(channel.csr)
                            : supervisor->scratch_path(std::string{channel.name} + ".s" +
                                                       std::to_string(s) + ".csr");
  };

  std::vector<Stage> stages;

  // trace: synthesize the campus capture into the three bipartite graphs
  // plus the ground-truth registry.
  stages.push_back({specs[0],
                    {{.name = "trace",
                      .outputs = spec_outputs(specs[0]),
                      .body = [&](const Checkpoint& checkpoint) {
                        GraphBuilderSink graphs;
                        const auto trace_result = trace::generate_trace(config.trace, graphs);
                        checkpoint();
                        graph::save_bipartite_file(path("hdbg.bg"), graphs.take_hdbg());
                        graph::save_bipartite_file(path("dibg.bg"), graphs.take_dibg());
                        graph::save_bipartite_file(path("dtbg.bg"), graphs.take_dtbg());
                        trace::save_ground_truth_file(path("truth.gt"), trace_result.truth);
                        util::save_artifact(path("trace.stats"), "trace-stats",
                                            trace_stats_payload({trace_result.dns_events,
                                                                 trace_result.nxdomain_events,
                                                                 trace_result.flow_events}));
                      }}},
                    {}});

  // behavior: prune + project the reloaded bipartite graphs, one task per
  // channel pair-shard. Quarantined shards leave their pairs out and flag
  // the run.
  stages.push_back({specs[1], {}, {}});
  stages.back().tasks.push_back(
      {.name = "behavior.prune",
       .outputs = {{path("kept.domains"), "domain-list"}},
       .body = [&](const Checkpoint&) {
         const auto pruned = pruned_channel_graph(options.workdir, kChannels[0], config);
         std::vector<std::string> kept;
         kept.reserve(pruned.right_count());
         for (graph::VertexId r = 0; r < pruned.right_count(); ++r) {
           kept.push_back(pruned.right_names().name(r));
         }
         util::save_artifact(path("kept.domains"), "domain-list", domain_list_payload(kept));
       }});
  for (const auto& channel : kChannels) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      const auto file = shard_file(channel, s);
      // Only sv/ partials are reusable: the scratch config hash gates them,
      // while final artifacts are reused at stage granularity.
      stages.back().tasks.push_back(
          {.name = shard_task(channel, s),
           .quarantinable = true,
           .reusable = shard_count > 1,
           .outputs = {{file, "csr-graph"}},
           .body = [&, channel, file, s](const Checkpoint& checkpoint) {
             graph::ProjectionOptions proj = config.behavior.*channel.projection;
             proj.threads = config.projection_threads;
             proj.mode = config.projection_mode;
             proj.sketch = config.sketch;
             proj.pair_shard_index = s;
             proj.pair_shard_count = shard_count;
             const auto pruned = pruned_channel_graph(options.workdir, channel, config);
             checkpoint();
             graph::save_csr_file(file, graph::project_right(pruned, proj));
           }});
    }
  }
  stages.back().join = [&] {
    const auto& quarantined = driver.quarantined();
    for (const auto& channel : kChannels) {
      std::vector<std::string> partials;
      for (std::size_t s = 0; s < shard_count; ++s) {
        if (!std::binary_search(quarantined.begin(), quarantined.end(),
                                shard_task(channel, s))) {
          partials.push_back(shard_file(channel, s));
        }
      }
      if (shard_count > 1 || partials.empty()) {
        merge_channel_shards(options.workdir, channel, config, partials);
      }
    }
  };

  // embed: one LINE embedding per similarity graph, then the concatenated
  // vector. The CSR graphs are memory-mapped, not parsed: LINE's edge
  // sampler reads the mapped sections in place. LINE is bit-deterministic
  // at any thread count, so worker placement cannot change the arenas.
  stages.push_back({specs[2], {}, {}});
  for (std::size_t c = 0; c < std::size(kChannels); ++c) {
    const ChannelSpec channel = kChannels[c];
    stages.back().tasks.push_back(
        {.name = std::string{"embed."} + channel.name,
         .outputs = {{path(channel.embedding), "embedding-arena"}},
         .body = [&, channel, c](const Checkpoint& checkpoint) {
           embed::EmbedConfig embed_config = config.embedding;
           embed_config.dimension = config.embedding_dimension;
           embed_config.seed = config.seed + c;
           const auto csr = graph::load_csr_file(path(channel.csr));
           checkpoint();
           embed::embed_graph(csr, embed_config).save_arena_file(path(channel.embedding));
         }});
  }
  stages.back().join = [&] {
    const auto kept = parse_domain_list(
        util::load_artifact(path("kept.domains"), "domain-list"), path("kept.domains"));
    std::vector<embed::EmbeddingMatrix> parts;
    for (const auto& channel : kChannels) {
      parts.push_back(embed::EmbeddingMatrix::load_arena_file(path(channel.embedding)));
    }
    embed::EmbeddingMatrix::concat(kept, {&parts[0], &parts[1], &parts[2]})
        .save_arena_file(path("combined.emb"));
  };

  // labels: ground truth + simulated VirusTotal over the kept domains.
  stages.push_back({specs[3],
                    {{.name = "labels",
                      .outputs = spec_outputs(specs[3]),
                      .body = [&](const Checkpoint& checkpoint) {
                        write_labels_file(options.workdir, config, checkpoint);
                      }}},
                    {}});

  // report: the quarantine list is final when this body runs, since the
  // behavior stage (the only producer of quarantinable tasks) is done.
  stages.push_back({specs[4],
                    {{.name = "report",
                      .outputs = spec_outputs(specs[4]),
                      .body = [&](const Checkpoint& checkpoint) {
                        write_report_file(options.workdir, config, driver.quarantined(),
                                          checkpoint);
                      }}},
                    {}});

  RunSummary summary;
  summary.report_path = path("report.md");
  for (const auto& stage : stages) driver.stage(stage, summary);
  if (supervisor) summary.supervision = supervisor->stats();
  summary.quarantined = driver.quarantined();
  return summary;
}

}  // namespace dnsembed::core
