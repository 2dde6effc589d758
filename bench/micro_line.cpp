// Microbenchmarks for the SIMD math-kernel layer and the LINE trainer.
//
// After the google-benchmark run, BENCH_line.json (override the path with
// DNSEMBED_BENCH_JSON) records best-of-N wall times for LINE training:
//  - a sweep over scalar vs the widest SIMD rung, dimensions 16 and 128,
//    and threads 1/2/4, with the OS thread count train_line actually used
//    (effective_threads) next to the requested one;
//  - a row shaped like the default pipeline's query graph (dim 24, 1.5k
//    vertices, 750k edges, 2M samples), where edge draws miss cache, at
//    threads 1 and 2, reporting samples/s.
// In full mode the binary FAILS (nonzero exit) when
//  - the SIMD path is under 1.5x the scalar path at dim=128, T=1, or
//  - T=2 (kBoth's two objectives on two threads) is not at most 0.7x the
//    T=1 wall at dim=128 on the widest rung. This gate reads the paired A/B
//    timer (bench_common.hpp): the median T=2/T=1 ratio over interleaved
//    repetitions, and an interquartile spread wider than the margin to
//    0.7x is "unresolved", which fails too.
//
// Smoke mode (DNSEMBED_BENCH_SMOKE=1): tiny step count, no timing gates
// (timings are noise at that scale) — it exists so CI catches dispatch
// regressions fast: both rungs must train to finite embeddings and the
// forced rung must actually be selected.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "embed/line.hpp"
#include "graph/weighted_graph.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

bool smoke_mode() {
  const char* env = std::getenv("DNSEMBED_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

graph::WeightedGraph random_graph(std::size_t vertices, std::size_t edges,
                                  std::uint64_t seed) {
  util::Rng rng{seed};
  graph::WeightedGraph g;
  for (std::size_t v = 0; v < vertices; ++v) g.add_vertex("v" + std::to_string(v));
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.uniform_index(vertices));
    auto w = static_cast<graph::VertexId>(rng.uniform_index(vertices));
    if (u == w) w = static_cast<graph::VertexId>((w + 1) % vertices);
    g.add_edge_unchecked(u, w, rng.uniform(0.5, 2.0));
  }
  return g;
}

embed::LineConfig line_config(std::size_t dim, std::size_t threads, std::size_t samples) {
  embed::LineConfig config;
  config.dimension = dim;
  config.total_samples = samples;
  config.threads = threads;
  config.seed = 42;
  return config;
}

// --------------------------------------------------------------- gbench

void BM_SimdDotF32(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto level = static_cast<util::simd::Level>(state.range(1));
  if (!util::simd::level_supported(level)) {
    state.SkipWithError("level unsupported on this CPU");
    return;
  }
  const auto prev = util::simd::active_level();
  util::simd::force_level(level);
  util::Rng rng{7};
  std::vector<float> a(dim);
  std::vector<float> b(dim);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::simd::dot(a.data(), b.data(), dim));
  }
  util::simd::force_level(prev);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_SimdDotF32)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({1024, 0})
    ->Args({1024, 2});

void BM_LineTrain(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto g = random_graph(1000, 20000, 3);
  const auto config = line_config(dim, threads, 100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::train_line(g, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.total_samples));
}
BENCHMARK(BM_LineTrain)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// BENCH_line.json: one JSON array of {name, simd, dim, threads,
// effective_threads, vertices, edges, samples, wall_ms, samples_per_s}.

double best_wall_ms(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    best = std::min(best, watch.millis());
  }
  return best;
}

bool finite_embedding(const embed::EmbeddingMatrix& m) {
  for (std::size_t v = 0; v < m.size(); ++v) {
    for (const float x : m.row(v)) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

struct Row {
  const char* name;
  util::simd::Level level;
  std::size_t dim;
  std::size_t threads;
  std::size_t effective_threads;
  std::size_t vertices;
  std::size_t edges;
  std::size_t samples;
  double wall_ms;
};

/// Time train_line on `g`; false if the embedding is not finite.
bool time_row(const char* name, const graph::WeightedGraph& g, std::size_t dim,
              std::size_t threads, std::size_t samples, int reps, std::vector<Row>& rows) {
  const auto config = line_config(dim, threads, samples);
  embed::EmbeddingMatrix last;
  const double ms = best_wall_ms([&] { last = embed::train_line(g, config); }, reps);
  const util::simd::Level level = util::simd::active_level();
  if (!finite_embedding(last)) {
    std::fprintf(stderr, "micro_line: FAIL: non-finite embedding in %s at %s dim=%zu\n",
                 name, util::simd::level_name(level), dim);
    return false;
  }
  rows.push_back({name, level, dim, threads, embed::effective_threads(config),
                  g.vertex_count(), g.edge_count(), samples, ms});
  return true;
}

int write_line_json() {
  const char* path = std::getenv("DNSEMBED_BENCH_JSON");
  if (path == nullptr) path = "BENCH_line.json";
  const bool smoke = smoke_mode();
  const int reps = smoke ? 1 : 3;
  const std::size_t samples = smoke ? 30000 : 600000;
  const auto g = random_graph(1000, 20000, 3);

  const util::simd::Level best_level = util::simd::active_level();
  const std::vector<util::simd::Level> levels =
      best_level == util::simd::Level::kScalar
          ? std::vector<util::simd::Level>{util::simd::Level::kScalar}
          : std::vector<util::simd::Level>{util::simd::Level::kScalar, best_level};

  std::vector<Row> rows;
  for (const util::simd::Level level : levels) {
    if (util::simd::force_level(level) != level) {
      std::fprintf(stderr, "micro_line: FAIL: could not force %s rung\n",
                   util::simd::level_name(level));
      return 1;
    }
    for (const std::size_t dim : {std::size_t{16}, std::size_t{128}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        if (!time_row("line_train", g, dim, threads, samples, reps, rows)) return 1;
      }
    }
  }
  util::simd::force_level(best_level);

  // The default pipeline's query graph: ~1.5k domains, ~700k similarity
  // edges, dim 24, 2M samples — the edge sampler far outgrows L2.
  const auto wide = random_graph(1500, smoke ? 50000 : 750000, 5);
  const std::size_t wide_samples = smoke ? 30000 : 2000000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    if (!time_row("line_batch_line_shape", wide, 24, threads, wide_samples, reps, rows)) {
      return 1;
    }
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_line: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"simd\": \"%s\", \"dim\": %zu, "
                 "\"threads\": %zu, \"effective_threads\": %zu, \"vertices\": %zu, "
                 "\"edges\": %zu, \"samples\": %zu, \"wall_ms\": %.3f, "
                 "\"samples_per_s\": %.0f}%s\n",
                 r.name, util::simd::level_name(r.level), r.dim, r.threads,
                 r.effective_threads, r.vertices, r.edges, r.samples, r.wall_ms,
                 static_cast<double>(r.samples) / (r.wall_ms / 1e3),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("wrote %s (%s mode, active rung %s)\n", path, smoke ? "smoke" : "full",
              util::simd::level_name(best_level));

  if (smoke) return 0;

  const auto wall_at = [&](util::simd::Level level, std::size_t dim, std::size_t threads) {
    for (const Row& r : rows) {
      if (std::string{r.name} == "line_train" && r.level == level && r.dim == dim &&
          r.threads == threads) {
        return r.wall_ms;
      }
    }
    return -1.0;
  };
  int rc = 0;

  // Gate: two objectives on two threads must beat one thread on real cores.
  constexpr double kThreadBound = 0.7;
  const auto t1_config = line_config(128, 1, samples);
  const auto t2_config = line_config(128, 2, samples);
  const bench::AbResult threads_ab = bench::paired_ab(
      [&] { benchmark::DoNotOptimize(embed::train_line(g, t1_config)); },
      [&] { benchmark::DoNotOptimize(embed::train_line(g, t2_config)); }, 9);
  const bench::AbVerdict threads_verdict = bench::ab_gate_at_most(threads_ab, kThreadBound);
  const std::string what =
      std::string{"dim=128 "} + util::simd::level_name(best_level) + " T=1 (A) vs T=2 (B)";
  bench::print_ab(what.c_str(), threads_ab, kThreadBound, threads_verdict);
  if (threads_verdict != bench::AbVerdict::kPass) {
    std::fprintf(stderr,
                 "micro_line: FAIL: T=2/T=1 wall at dim=128 is %.3fx, IQR [%.3f, %.3f] "
                 "(gate %.2fx): %s\n",
                 threads_ab.median, threads_ab.q1, threads_ab.q3, kThreadBound,
                 bench::ab_verdict_name(threads_verdict));
    rc = 1;
  }
  const double t1_ms = wall_at(best_level, 128, 1);

  if (best_level == util::simd::Level::kScalar) return rc;

  // Gate: SIMD must carry its weight where the flops live.
  const double scalar_ms = wall_at(util::simd::Level::kScalar, 128, 1);
  const double speedup = scalar_ms / t1_ms;
  std::printf("dim=128 T=1: scalar %.1f ms, %s %.1f ms -> %.2fx (gate: >= 1.5x)\n",
              scalar_ms, util::simd::level_name(best_level), t1_ms, speedup);
  if (speedup < 1.5) {
    std::fprintf(stderr, "micro_line: FAIL: %s is only %.2fx scalar at dim=128 "
                         "(gate 1.5x)\n",
                 util::simd::level_name(best_level), speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!smoke_mode()) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_line_json();
}
