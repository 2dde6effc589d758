// perfbench — the repo benchmark. One invocation runs one seeded workload,
// checks the program's outputs, and prints as its last stdout line
//
//   {"correct": b, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics from a
// separate traced run (--trace 1). Every workload runs a batch pipeline and
// then serves the artifacts it produced:
//
//   batch_line  in-process pipeline at the `dnsembed run` defaults (one LINE
//               lane); LINE dominates. Serving answers from the run's own
//               small index.
//   batch_wide  core::run_resumable with forked workers on a wider trace and
//               a small LINE budget; ingest, projection, artifacts and the
//               supervisor dominate.
//   serve_zipf  a small in-process run whose embedding is grown into a
//               synthetic universe with an index larger than one L2, served
//               under an open-loop Zipf load with periodic reloads.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--workdir DIR]
// perfbench/README.md documents every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "batch.hpp"
#include "core/detector.hpp"
#include "harness.hpp"
#include "ml/svm.hpp"
#include "serve/engine.hpp"
#include "serve/score_index.hpp"
#include "serve_load.hpp"
#include "util/artifact.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;
namespace core = dnsembed::core;
namespace embed = dnsembed::embed;
namespace ml = dnsembed::ml;
namespace serve = dnsembed::serve;

const std::vector<std::string> kEndToEnd = {
    "pipeline_s", "cpu_s", "peak_rss_mb", "auc_combined", "setup_s"};

const std::vector<std::string> kPerLayer = {
    "embed.query_s", "embed.ip_s", "embed.temporal_s", "embed.samples_per_s",
    "graph.behavior_s", "graph.project.query_s", "graph.project.ip_s",
    "graph.project.temporal_s", "graph.edges.query", "graph.edges.ip", "graph.edges.temporal",
    "dns.ingest_s", "dns.events",
    "core.stage.trace_s", "core.stage.behavior_s", "core.stage.embed_s",
    "core.stage.labels_s", "core.stage.report_s",
    "core.supervisor.tasks", "core.supervisor.restarts", "core.supervisor.task_wall_s",
    "core.supervisor.task_cpu_s", "core.supervisor.busy_ratio", "core.artifact_bytes",
    "intel.labels_s", "ml.svm_cv_s", "ml.xmeans_s", "ml.auc.query", "ml.auc.ip",
    "ml.auc.temporal", "core.report_s",
    "serve.setup_s", "serve.lookup_p50_us", "serve.lookup_p99_us", "serve.max_rate_kps",
    "serve.index_p50_us", "serve.index_p99_us", "serve.batched_p50_us",
    "serve.batched_p99_us", "serve.unknown_p50_us", "serve.unknown_p99_us",
    "serve.hit_share", "serve.batched_share", "serve.reload_s", "serve.reload_build_s",
    "serve.lookup_during_reload_p99_us", "serve.gen_lag_p99_us", "serve.index_bytes",
    "trace.pipeline_s", "trace.overhead_s", "trace.unattributed_share",
    "layer.dns_share", "layer.graph_share", "layer.embed_share", "layer.intel_share",
    "layer.ml_share", "layer.core_share"};

const char* const kChannels[3] = {"query", "ip", "temporal"};

/// Latency limit on the serve p99 that defines serve.max_rate_kps.
constexpr double kP99LimitUs = 1000.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      throw std::invalid_argument{"unknown option " + key};
    }
  }
  if (!have_workload || argc % 2 == 0) {
    throw std::invalid_argument{
        "usage: perfbench --workload batch_line|batch_wide|serve_zipf --seed N --seconds S "
        "--trace 0|1 [--workdir DIR]"};
  }
  return args;
}

/// Threads each layer may use; recorded with every result.
struct Threads {
  std::size_t nproc = 1;
  std::size_t line_lanes = 1;
  std::size_t workers = 0;
  std::size_t threads_per_worker = 1;
  std::size_t projection = 1;
  std::size_t svm = 1;
  std::size_t clients = 2;
  std::size_t serve_precompute = 1;
};

/// Everything one workload fixes: its trace, pipeline knobs, how it runs
/// the pipeline, and how large its serving universe is.
struct Workload {
  core::PipelineConfig config;
  Threads threads;
  bool durable = false;
  std::size_t setups = 5;
  /// Lowest acceptable combined cross-validated AUC: under every seed seen
  /// (0.88-0.99), well over a broken detector (0.5).
  double auc_floor = 0.80;
  /// serve_zipf grows the run's embedding to this many indexed rows.
  std::size_t serve_indexed_rows = 0;
};

Workload make_workload(const Args& args) {
  Workload w;
  auto& c = w.config;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  w.threads.nproc = nproc;
  w.threads.clients = std::min<std::size_t>(2, nproc);
  // `dnsembed run` defaults, except one LINE lane: LINE's lanes meet at a
  // barrier every batch, so on a shared host one preempted vCPU stalls them
  // all. At 4 lanes a repetition took 8.5-21 s; at one lane 10.4-10.9 s,
  // with byte-identical reports (LINE is deterministic at any lane count).
  c.trace.hosts = 200;
  c.trace.days = 4;
  c.trace.benign_sites = 1000;
  c.trace.malware_families = 8;
  c.trace.seed = args.seed;
  c.embedding_dimension = 24;
  c.embedding.line.total_samples = 2'000'000;
  c.embedding.line.threads = 1;
  c.kfold = 5;
  c.xmeans.k_min = 8;
  c.xmeans.k_max = 64;
  if (args.workload == "batch_line") {
    w.threads.projection = nproc;
    w.threads.svm = nproc;
  } else if (args.workload == "batch_wide") {
    c.trace.hosts = 400;
    c.trace.days = 6;
    c.trace.benign_sites = 2000;
    c.embedding.line.total_samples = 200'000;
    w.auc_floor = 0.60;  // a tenth of the LINE budget on twice the trace: 0.70-0.77
    w.durable = true;
    w.setups = 3;
    w.threads.workers = std::min<std::size_t>(4, nproc);
    w.threads.threads_per_worker = std::max<std::size_t>(1, nproc / w.threads.workers);
    w.threads.line_lanes = w.threads.threads_per_worker;
    w.threads.projection = w.threads.threads_per_worker;
    w.threads.svm = w.threads.threads_per_worker;
    c.embedding.line.threads = w.threads.line_lanes;
    c.projection_threads = w.threads.projection;
    c.svm.threads = w.threads.svm;
  } else if (args.workload == "serve_zipf") {
    c.embedding.line.total_samples = 600'000;
    w.auc_floor = 0.75;  // a smaller LINE budget: 0.85-0.99
    w.threads.projection = nproc;
    w.threads.svm = nproc;
    // 80k entries fill a 4 MiB table, twice a 2 MiB L2.
    w.serve_indexed_rows = 80'000;
  } else {
    throw std::invalid_argument{"unknown workload " + args.workload};
  }
  return w;
}

std::string env_json(const Args& args, const Workload& w) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const auto& t = w.threads;
  std::ostringstream out;
  out << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << json_number(args.seconds) << ", \"trace\": " << args.trace
      << ", \"nproc\": " << t.nproc << ", \"simd\": "
      << json_string(dnsembed::util::simd::level_name(dnsembed::util::simd::active_level()))
      << ", \"l2_bytes\": " << l2 << ", \"effective_threads\": {\"line_lanes\": "
      << t.line_lanes << ", \"workers\": " << t.workers
      << ", \"threads_per_worker\": " << t.threads_per_worker
      << ", \"projection\": " << t.projection << ", \"svm\": " << t.svm
      << ", \"client_threads\": " << t.clients
      << ", \"serve_precompute\": " << t.serve_precompute << "}}";
  return out.str();
}

/// Outcome bookkeeping: operations attempted and failed, and the output
/// checks that did not hold.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> broken;

  void expect(bool ok, const std::string& what) {
    if (!ok) broken.push_back(what);
  }
};

// ------------------------------------------------------------- serving

/// The serving universe of a finished run: its combined embedding and an
/// SVM trained on its labeled set. serve_zipf appends synthetic rows near
/// the run's rows until the index holds `indexed_rows`.
ServeUniverse make_universe(const BatchOutcome& run, const Workload& w, std::uint64_t seed) {
  ServeUniverse u;
  ml::SvmConfig svm = w.config.svm;
  svm.threads = w.threads.svm;
  u.model = ml::train_svm(core::make_dataset(run.combined, run.labels), svm);
  if (w.serve_indexed_rows == 0) {
    u.embedding = run.combined;
    u.indexed = u.embedding.size() * 9 / 10;
  } else {
    const std::size_t total = w.serve_indexed_rows * 10 / 9;
    const std::size_t base = run.combined.size();
    std::vector<std::string> names = run.combined.names();
    names.reserve(total);
    for (std::size_t i = base; i < total; ++i) {
      names.push_back("syn" + std::to_string(i) + "-" + std::to_string(seed) + ".net");
    }
    u.embedding = embed::EmbeddingMatrix{std::move(names), run.combined.dimension()};
    dnsembed::util::Rng rng{seed ^ 0x5e7f'0ad5ULL};
    for (std::size_t i = 0; i < total; ++i) {
      const auto src = run.combined.row(i < base ? i : rng.uniform_index(base));
      const auto dst = u.embedding.row(i);
      for (std::size_t j = 0; j < dst.size(); ++j) {
        dst[j] = src[j] + (i < base ? 0.0f : static_cast<float>(rng.normal(0.0, 0.05)));
      }
    }
    u.indexed = w.serve_indexed_rows;
  }
  for (std::size_t i = 0; i < 1024; ++i) {
    u.unknown.push_back("unseen" + std::to_string(i) + "-" + std::to_string(seed) + ".org");
  }
  return u;
}

/// Fixed serving schedule. On a shared (virtualised) host a client thread
/// is preempted for milliseconds now and then, in bursts that can last a
/// second or two; a p99 over a stretch with such a stall measures the host,
/// not the program. So latencies are taken over short windows spread
/// across the whole schedule and summarised by a low quantile over the
/// windows, which measures the quiet ones:
///
///   warm-up | ref x4 | rate search | ref x4 | reloads | ref x4
struct ServePlan {
  double ref_rate = 5'000.0;
  double warm_seconds = 0.5;
  double ref_window_seconds = 0.2;  // 1000 lookups: 10 beyond the p99
  std::size_t ref_windows_per_slot = 4;
  /// Rate search: coarse steps from `first_rate` until a rate fails, then
  /// fine steps up from the last rate that met the limit.
  double first_rate = 16'000.0;
  double coarse_step = 1.25;
  double fine_step = 1.05;
  double rung_seconds = 0.5;
  double reload_seconds = 4.0;
  double reload_every_s = 0.1;
};

/// A low quantile of per-window statistics: the value in the quiet windows.
double quiet(std::vector<double> per_window, double q) {
  std::sort(per_window.begin(), per_window.end());
  return sorted_quantile(per_window, q);
}

ServePlan serve_plan(const Workload& w) {
  ServePlan plan;
  // Large universes take seconds to reload; keep several reloads.
  if (w.serve_indexed_rows > 0) plan.reload_seconds = 8.0;
  return plan;
}

/// Seconds serve_and_measure typically spends under load (a search takes
/// about eight rungs).
double serve_seconds(const Workload& w) {
  const ServePlan plan = serve_plan(w);
  return plan.warm_seconds + plan.reload_seconds + 8 * plan.rung_seconds +
         3 * static_cast<double>(plan.ref_windows_per_slot) * plan.ref_window_seconds;
}

void serve_and_measure(const BatchOutcome& run, const Workload& w, const Args& args,
                       Checks& checks, MetricTable& m, Tracer& tracer) {
  const std::string dir = args.workdir + "/serve";
  std::filesystem::create_directories(dir);
  const double t_setup = now_s();
  ServeUniverse u = make_universe(run, w, args.seed);
  save_universe(u, dir);
  serve::ServeOptions options;
  options.index_limit = u.indexed;
  options.threads = w.threads.serve_precompute;
  serve::ServeEngine engine{u.embeddings_path, u.model_path, options};
  m.set("serve.setup_s", now_s() - t_setup, "s");
  // Write back the pipeline's and the universe's files now, so the kernel
  // does not flush them while lookups are being timed.
  ::sync();

  const ServePlan plan = serve_plan(w);
  std::uint64_t stream_seed = args.seed * 0x9e37'79b9'7f4a'7c15ULL + 17;
  std::vector<double> expected;
  PhaseOptions phase;
  phase.clients = w.threads.clients;
  // Streams are generated from the seed, and their batch-path scores
  // computed, before each phase starts.
  const auto send = [&](double rate, double seconds, std::size_t windows, double reload_every) {
    const auto requests =
        make_requests(u, static_cast<std::size_t>(rate * seconds), ++stream_seed);
    expected_scores(u, requests, w.threads.nproc, expected);
    phase.rate = rate;
    phase.windows = windows;
    phase.reload_every_s = reload_every;
    PhaseResult r = run_phase(engine, u, requests, expected, phase);
    checks.attempted += r.attempted;
    checks.failed += r.failed;
    return r;
  };
  send(plan.ref_rate, plan.warm_seconds, 1, 0.0);  // first touches and lazy statics

  // Reference rate: one window per call; per-kind latencies pooled.
  std::vector<double> ref_p50, ref_p99, ref_lag_p99;
  std::vector<double> kind_us[3];
  std::size_t ref_lookups = 0;
  const auto reference = [&] {
    ScopedSpan span{tracer, "serve.reference_rate"};
    for (std::size_t i = 0; i < plan.ref_windows_per_slot; ++i) {
      const PhaseResult r = send(plan.ref_rate, plan.ref_window_seconds, 1, 0.0);
      ref_p50.push_back(r.window_p50_us[0]);
      ref_p99.push_back(r.window_p99_us[0]);
      ref_lag_p99.push_back(sorted_quantile(r.lag_us, 0.99));
      for (int k = 0; k < 3; ++k) {
        kind_us[k].insert(kind_us[k].end(), r.latency_us[k].begin(), r.latency_us[k].end());
      }
      ref_lookups += r.attempted;
    }
  };

  // serve.max_rate_kps: the highest fixed rate whose p99 meets the limit
  // with no growing generator lag.
  std::ostringstream ladder_json;
  std::size_t rungs = 0;
  const auto meets_limit = [&](double rate, double& best) {
    const PhaseResult r = send(rate, plan.rung_seconds, 8, 0.0);
    // The quiet windows' p99 meets the limit, and the generator is not
    // falling ever further behind (a growing queue leaves both of the last
    // two windows late; a stall, one of them).
    const double p99 = quiet(r.window_p99_us, 0.25);
    const std::size_t n = r.window_lag_p50_us.size();
    const double end_lag = std::min(r.window_lag_p50_us[n - 1], r.window_lag_p50_us[n - 2]);
    const bool ok = p99 <= kP99LimitUs && end_lag <= kP99LimitUs && r.failed == 0;
    ladder_json << (rungs++ == 0 ? "" : ", ") << "{\"rate\": " << json_number(r.rate)
                << ", \"achieved\": " << json_number(r.achieved) << ", \"lookups\": "
                << r.attempted << ", \"p50_us\": " << json_number(median(r.window_p50_us))
                << ", \"p99_us\": " << json_number(p99)
                << ", \"end_lag_p50_us\": " << json_number(end_lag) << ", \"meets_limit\": " << ok
                << "}";
    if (ok) best = std::max(best, r.achieved);
    return ok;
  };
  const auto search = [&] {
    ScopedSpan span{tracer, "serve.rate_search"};
    double best = 0.0;
    double passed = 0.0;
    double failed = 0.0;
    for (double rate = plan.first_rate; failed == 0.0; rate *= plan.coarse_step) {
      (meets_limit(rate, best) ? passed : failed) = rate;
    }
    for (double rate = passed * plan.fine_step; passed > 0.0 && rate < failed * 0.999;
         rate *= plan.fine_step) {
      if (!meets_limit(rate, best)) break;
    }
    return best;
  };

  reference();
  const double max_rate = search();
  reference();
  PhaseResult reload;
  {
    ScopedSpan span{tracer, "serve.reload_load"};
    reload = send(plan.ref_rate, plan.reload_seconds, 1, plan.reload_every_s);
  }
  checks.expect(reload.reload_error.empty(), "reload failed: " + reload.reload_error);
  checks.expect(!reload.reload_s.empty(), "no reload completed during the reload phase");
  reference();

  const auto stats = engine.stats();
  // Reference latency: the lower decile over the 12 windows (the second
  // quietest), each window 1000 lookups with 10 beyond its p99.
  m.set("serve.lookup_p50_us", quiet(ref_p50, 0.1), "us");
  m.set("serve.lookup_p99_us", quiet(ref_p99, 0.1), "us");
  m.set("serve.max_rate_kps", max_rate / 1e3, "k/s");
  // The mean, not the median: on a shared host a core runs at one of two
  // speeds (about 1.6x apart) for seconds at a time, and the median of a
  // run's reloads lands on either; the mean averages the two.
  double reload_total = 0.0;
  for (const double s : reload.reload_s) reload_total += s;
  m.set("serve.reload_s", reload_total / static_cast<double>(std::max<std::size_t>(reload.reload_s.size(), 1)), "s");
  const char* kinds[3] = {"index", "batched", "unknown"};
  double total = 0.0;
  for (int k = 0; k < 3; ++k) {
    std::sort(kind_us[k].begin(), kind_us[k].end());
    m.set(std::string{"serve."} + kinds[k] + "_p50_us", sorted_quantile(kind_us[k], 0.5), "us");
    m.set(std::string{"serve."} + kinds[k] + "_p99_us", sorted_quantile(kind_us[k], 0.99), "us");
    total += static_cast<double>(kind_us[k].size());
  }
  m.set("serve.hit_share", static_cast<double>(kind_us[kIndexHit].size()) / total, "ratio");
  m.set("serve.batched_share", static_cast<double>(kind_us[kBatched].size()) / total, "ratio");
  m.set("serve.lookup_during_reload_p99_us", sorted_quantile(reload.during_reload_us, 0.99), "us");
  m.set("serve.gen_lag_p99_us", median(ref_lag_p99), "us");
  m.set("serve.index_bytes", static_cast<double>(stats.index_bytes), "bytes");

  if (tracer.enabled()) {
    // The snapshot build that reload() performs, through the same public
    // calls: load both artifacts, score the indexed rows, build the index.
    const double t0 = now_s();
    ScopedSpan span{tracer, "serve.reload_build"};
    const auto emb = embed::EmbeddingMatrix::load_arena_file(u.embeddings_path);
    auto model = ml::SvmModel::load_file(u.model_path);
    model.set_scoring_threads(options.threads);
    ml::Matrix x{u.indexed, emb.dimension()};
    for (std::size_t i = 0; i < u.indexed; ++i) {
      const auto src = emb.row(i);
      std::copy(src.begin(), src.end(), x.row(i).begin());
    }
    const auto scores = model.decision_values(x);
    const std::vector<std::string> names(emb.names().begin(),
                                         emb.names().begin() + static_cast<long>(u.indexed));
    const auto index = serve::ScoreIndex::build(names, scores, options.hash_seed);
    checks.expect(index.size() == stats.index_entries, "replayed index size differs");
    m.set("serve.reload_build_s", now_s() - t0, "s");
  }

  std::printf("{\"serve\": {\"rows\": %zu, \"indexed\": %zu, \"support_vectors\": %zu, "
              "\"clients\": %zu, \"reference_rate\": %s, \"reference_lookups\": %zu, "
              "\"reference_window_p50_us\": [%s], \"reference_window_p99_us\": [%s], "
              "\"reload_s\": [%s], \"reload_lookups\": %zu, \"ladder\": [%s]}}\n",
              u.embedding.size(), u.indexed, u.model.support_vector_count(), phase.clients,
              json_number(plan.ref_rate).c_str(), ref_lookups, json_list(ref_p50).c_str(),
              json_list(ref_p99).c_str(),
              json_list(reload.reload_s).c_str(), reload.attempted, ladder_json.str().c_str());
}

// -------------------------------------------------------------- batch

/// Layer shares of one traced pipeline run: self time per layer (the span
/// name up to its first dot) over the root span's duration.
void layer_shares(const Tracer& tracer, int run, double pipeline_s, MetricTable& m,
                  Checks& checks, const std::string& workload) {
  std::map<std::string, double> layers = {{"dns", 0.0},   {"graph", 0.0}, {"embed", 0.0},
                                          {"intel", 0.0}, {"ml", 0.0},    {"core", 0.0}};
  double attributed = 0.0;
  double root_self = 0.0;
  for (const auto& [name, self] : tracer.self_times(run)) {
    const std::string layer = name.substr(0, name.find('.'));
    layers[layer] += self;
    if (name == "core.pipeline" || name == "core.run_resumable") {
      root_self += self;
    } else {
      attributed += self;
    }
  }
  for (const auto& [layer, self] : layers) {
    m.set("layer." + layer + "_share", self / pipeline_s, "ratio");
  }
  m.set("trace.unattributed_share", root_self / pipeline_s, "ratio");
  checks.expect(std::abs(attributed + root_self - pipeline_s) <= 0.05 * pipeline_s &&
                    root_self <= 0.05 * pipeline_s,
                "layer self times do not cover pipeline_s within 5%");
  std::string largest;
  double best = -1.0;
  for (const auto& [layer, self] : layers) {
    if (self > best) {
      best = self;
      largest = layer;
    }
  }
  std::printf("{\"largest_layer\": %s, \"share\": %s}\n", json_string(largest).c_str(),
              json_number(best / pipeline_s).c_str());
  if (workload == "batch_line") {
    checks.expect(largest == "embed", "embed is not the largest layer");
  } else if (workload == "batch_wide") {
    checks.expect(largest != "embed", "embed is the largest layer");
  }
}

core::RunOptions durable_options(const Workload& w, const Args& args) {
  core::RunOptions options;
  options.workdir = args.workdir + "/run";
  options.config = w.config;
  options.supervise.workers = w.threads.workers;
  return options;
}

/// Per-layer numbers of a traced in-process repetition.
void in_process_layers(const BatchOutcome& run, const Workload& w, Tracer& tracer, int run_id,
                       MetricTable& m, Checks& checks) {
  const auto self = tracer.self_times(run_id);
  const auto get = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double embed_s = 0.0;
  double svm_s = 0.0;
  for (const char* c : kChannels) {
    m.set(std::string{"embed."} + c + "_s", get(std::string{"embed."} + c), "s");
    embed_s += get(std::string{"embed."} + c);
  }
  for (const char* c : {"query", "ip", "temporal", "combined"}) {
    svm_s += get(std::string{"ml.svm_cv."} + c);
  }
  m.set("embed.samples_per_s",
        3.0 * static_cast<double>(w.config.embedding.line.total_samples) / embed_s, "1/s");
  m.set("graph.behavior_s", get("graph.behavior"), "s");
  m.set("dns.ingest_s", get("dns.ingest"), "s");
  m.set("intel.labels_s", get("intel.labels"), "s");
  m.set("ml.svm_cv_s", svm_s, "s");
  m.set("ml.xmeans_s", get("ml.xmeans"), "s");
  m.set("core.report_s", get("core.report"), "s");
  m.set("core.stage.trace_s", get("dns.ingest"), "s");
  m.set("core.stage.behavior_s", get("graph.behavior"), "s");
  m.set("core.stage.embed_s", embed_s + get("embed.concat"), "s");
  m.set("core.stage.labels_s", get("intel.labels"), "s");
  m.set("core.stage.report_s", svm_s + get("ml.xmeans") + get("core.report"), "s");
  // This path bypasses the supervisor.
  m.set("core.supervisor.tasks", 0.0, "count");
  m.set("core.supervisor.restarts", 0.0, "count");
  m.set("core.supervisor.task_wall_s", 0.0, "s");
  m.set("core.supervisor.task_cpu_s", 0.0, "s");
  m.set("core.supervisor.busy_ratio", 0.0, "ratio");
  tracer.set_run(run_id + 1);
  std::array<std::size_t, 3> edges{};
  const auto seconds = reproject(run.model, w.config, edges, tracer);
  for (std::size_t c = 0; c < 3; ++c) {
    m.set(std::string{"graph.project."} + kChannels[c] + "_s", seconds[c], "s");
    checks.expect(edges[c] == run.edges[c],
                  std::string{"re-projected "} + kChannels[c] + " edge count differs");
  }
}

/// Per-layer numbers of a traced durable repetition.
void durable_layers(const BatchOutcome& run, const Workload& w, const Args& args,
                    const TraceInputs& inputs, Tracer& tracer, int run_id, MetricTable& m,
                    Checks& checks) {
  const auto& summary = run.summary;
  std::map<std::string, double> stage;
  for (const auto& s : summary.stages) stage[s.name] = s.seconds;
  for (const char* s : {"trace", "behavior", "embed", "labels", "report"}) {
    m.set(std::string{"core.stage."} + s + "_s", stage[s], "s");
  }
  const auto& sv = summary.supervision;
  double wall = 0.0;
  double cpu = 0.0;
  std::map<std::string, double> task_wall;
  for (const auto& r : sv.resources) {
    wall += r.wall_seconds;
    cpu += r.cpu_user_seconds + r.cpu_system_seconds;
    task_wall[r.task] = r.wall_seconds;
  }
  m.set("core.supervisor.tasks", static_cast<double>(sv.tasks_run), "count");
  m.set("core.supervisor.restarts", static_cast<double>(sv.restarts), "count");
  m.set("core.supervisor.task_wall_s", wall, "s");
  m.set("core.supervisor.task_cpu_s", cpu, "s");
  m.set("core.supervisor.busy_ratio", wall > 0.0 ? cpu / wall : 0.0, "ratio");
  // Each channel trains in its own worker task.
  double embed_s = 0.0;
  for (const char* c : kChannels) {
    const double s = task_wall[std::string{"embed."} + c];
    m.set(std::string{"embed."} + c + "_s", s, "s");
    embed_s += s;
  }
  m.set("embed.samples_per_s",
        3.0 * static_cast<double>(w.config.embedding.line.total_samples) / embed_s, "1/s");
  m.set("graph.behavior_s", stage["behavior"], "s");
  m.set("intel.labels_s", task_wall["labels"], "s");

  tracer.set_run(run_id + 1);
  const auto replay = replay_durable(durable_options(w, args), inputs, run.report, tracer);
  m.set("dns.ingest_s", replay.ingest_s, "s");
  for (std::size_t c = 0; c < 3; ++c) {
    m.set(std::string{"graph.project."} + kChannels[c] + "_s", replay.project_s[c], "s");
    checks.expect(replay.edges[c] == run.edges[c],
                  std::string{"re-projected "} + kChannels[c] + " edge count differs from the run");
  }
  double svm_s = 0.0;
  for (const double s : replay.svm_cv_s) svm_s += s;
  m.set("ml.svm_cv_s", svm_s, "s");
  m.set("ml.xmeans_s", replay.xmeans_s, "s");
  m.set("core.report_s", replay.report_s, "s");
  checks.expect(replay.report_identical, "report replayed from the run's artifacts differs");
  for (std::size_t i = 0; i < 4; ++i) {
    checks.expect(std::abs(replay.auc[i] - run.auc[i]) < 1e-4, "replayed AUC differs from report");
  }
}

int run(const Args& args) {
  const Workload w = make_workload(args);
  const std::string env = env_json(args, w);
  std::printf("{\"env\": %s}\n", env.c_str());
  std::fflush(stdout);  // forked workers must not inherit buffered output
  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  dnsembed::util::set_log_level(dnsembed::util::LogLevel::kWarn);

  MetricTable m;
  Checks checks;
  Tracer tracer{args.trace};
  const double t_start = now_s();

  // Set-up: generate the workload's DNS log, several times; every copy must
  // be the same log.
  std::vector<double> setup_times;
  TraceInputs inputs;
  for (std::size_t i = 0; i < w.setups; ++i) {
    const double t0 = now_s();
    TraceInputs again = generate_inputs(w.config.trace);
    setup_times.push_back(now_s() - t0);
    if (i > 0) {
      checks.expect(again.entries.size() == inputs.entries.size() &&
                        again.result.dns_events == inputs.result.dns_events,
                    "set-up generated a different log for the same seed");
    }
    inputs = std::move(again);
  }
  m.set("setup_s", median(setup_times), "s");
  m.set("dns.events", static_cast<double>(inputs.result.dns_events), "count");

  // Pipeline repetitions. Untraced: repeat until the budget left after the
  // fixed serving schedule is spent, at least three times (a median that
  // survives one repetition slowed by the host; every report digest must
  // match). Traced: two untraced repetitions, then the traced one; the
  // tracing overhead is measured against the second, equally warm one.
  const double pipeline_budget = args.seconds - serve_seconds(w);
  std::vector<BatchOutcome> reps;
  std::vector<double> pipeline_s;
  std::vector<double> cpu_s;
  const double t_pipeline = now_s();
  const core::RunOptions options = durable_options(w, args);
  const std::string report_path = args.workdir + "/report.md";
  Tracer untraced{false};
  const std::size_t min_reps = 3;
  while (pipeline_s.size() < min_reps ||
         (!args.trace && now_s() - t_pipeline < pipeline_budget)) {
    const bool traced_rep = args.trace && pipeline_s.size() == 2;
    Tracer& t = traced_rep ? tracer : untraced;
    t.set_run(1);
    BatchOutcome rep = w.durable ? run_durable(options, t)
                                 : run_in_process(w.config, inputs, report_path, t);
    ++checks.attempted;
    pipeline_s.push_back(rep.pipeline_s);
    cpu_s.push_back(rep.cpu_s);
    if (!reps.empty() && rep.report_digest != reps.front().report_digest) {
      ++checks.failed;
      checks.broken.push_back("report.md digest differs between repetitions");
    }
    if (rep.auc[3] < w.auc_floor) {
      ++checks.failed;
      checks.broken.push_back("auc_combined below floor");
    }
    if (w.durable) {
      // The run's trace stage must have ingested exactly the set-up log.
      std::istringstream stats{
          dnsembed::util::load_artifact(options.workdir + "/trace.stats", "trace-stats")};
      std::string key;
      std::size_t events = 0;
      stats >> key >> events;
      checks.expect(events == inputs.result.dns_events, "run ingested a different event count");
    }
    // Keep the first repetition (digest reference) and the latest one.
    if (reps.size() == 2) reps.pop_back();
    reps.push_back(std::move(rep));
  }
  const BatchOutcome& last = reps.back();
  {
    std::string reps_json;
    for (std::size_t i = 0; i < pipeline_s.size(); ++i) {
      reps_json +=
          (i == 0 ? "" : ", ") + json_number(pipeline_s[i]) + "/" + json_number(cpu_s[i]);
    }
    std::printf("{\"pipeline\": {\"reps_wall_cpu_s\": \"%s\", \"dns_events\": %zu, "
                "\"kept_domains\": %zu, \"labeled\": %zu}}\n",
                reps_json.c_str(), inputs.result.dns_events, last.kept_domains, last.labeled);
  }
  m.set("pipeline_s", median(pipeline_s), "s");
  m.set("cpu_s", median(cpu_s), "s");
  m.set("auc_combined", last.auc[3], "ratio");
  m.set("ml.auc.query", last.auc[0], "ratio");
  m.set("ml.auc.ip", last.auc[1], "ratio");
  m.set("ml.auc.temporal", last.auc[2], "ratio");
  m.set("core.artifact_bytes", static_cast<double>(last.artifact_bytes), "bytes");
  for (std::size_t c = 0; c < 3; ++c) {
    m.set(std::string{"graph.edges."} + kChannels[c], static_cast<double>(last.edges[c]), "count");
  }

  if (args.trace) {
    m.set("trace.pipeline_s", last.pipeline_s, "s");
    m.set("trace.overhead_s", last.pipeline_s - pipeline_s[1], "s");
    layer_shares(tracer, 1, last.pipeline_s, m, checks, args.workload);
    if (w.durable) {
      durable_layers(last, w, args, inputs, tracer, 1, m, checks);
    } else {
      in_process_layers(last, w, tracer, 1, m, checks);
    }
  }

  // Serving phase on this run's artifacts.
  tracer.set_run(3);
  serve_and_measure(last, w, args, checks, m, tracer);
  m.set("peak_rss_mb", usage_now().peak_rss_mb, "MB");
  std::fprintf(stderr, "perfbench: %s seed %llu finished in %.1fs\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), now_s() - t_start);

  if (tracer.enabled()) {
    const std::string path = args.workdir + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    tracer.write_json(path, env);
  }
  for (const auto& problem : checks.broken) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  const bool correct = checks.broken.empty() && checks.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", checks.attempted, checks.failed,
              m.json(args.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
