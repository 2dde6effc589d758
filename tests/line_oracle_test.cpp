// Oracle test for the LINE kernel: the packed-sampler, snapshot-row kernel
// in embed/line.cpp must reproduce, bit for bit, the delta-buffer trainer it
// replaced. That trainer's single-lane loop lives on below as a test-only
// reference: every step buffers its updates as (row key, delta) entries and
// the batch applies them in emission order, reading the edge sampler's
// four arrays (acceptance, alias, edge_u, edge_v) through AliasTable.
//
// The grid covers both objectives and their concatenation, a SIMD-tail
// dimension (13), the two batch-size clamps (V < 256 -> 64-step batches,
// V >= 16384 -> 4096-step batches), the two-objective threads (threads 2 and
// 0), both train_line entry points, and negatives 0, 1 and 15 besides the
// default 5. Labeled "simd;concurrency" so the forced-scalar run and the
// TSan preset both cover it; tools/ci_check.sh also runs the simd label
// under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "embed/alias.hpp"
#include "embed/embedding.hpp"
#include "embed/line.hpp"
#include "graph/io.hpp"
#include "graph/weighted_graph.hpp"
#include "util/csr.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::embed {
namespace {

// ------------------------------------------------- reference trainer

class SigmoidTable {
 public:
  SigmoidTable() {
    for (std::size_t i = 0; i < kSize; ++i) {
      const double x = (static_cast<double>(i) / (kSize - 1) * 2.0 - 1.0) * kBound;
      table_[i] = 1.0 / (1.0 + std::exp(-x));
    }
  }

  double operator()(double x) const noexcept {
    if (x >= kBound) return 1.0;
    if (x <= -kBound) return 0.0;
    const auto idx =
        static_cast<std::size_t>((x + kBound) / (2.0 * kBound) * (kSize - 1) + 0.5);
    return table_[idx];
  }

 private:
  static constexpr std::size_t kSize = 2048;
  static constexpr double kBound = 6.0;
  double table_[kSize];
};

const SigmoidTable& sigmoid() {
  static const SigmoidTable table;
  return table;
}

constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

constexpr std::uint64_t sample_seed(std::uint64_t base, std::uint64_t step) noexcept {
  return mix64(base ^ mix64(step + 0x9e3779b97f4a7c15ULL));
}

struct TrainContext {
  std::span<const std::uint32_t> edge_u;
  std::span<const std::uint32_t> edge_v;
  std::size_t vertex_count = 0;
  const LineConfig& config;
  AliasTable edge_sampler;
  AliasTable noise_sampler;
  std::size_t steps = 0;
};

struct DeltaShard {
  std::vector<std::uint32_t> keys;
  std::vector<float> deltas;

  void clear() noexcept {
    keys.clear();
    deltas.clear();
  }
};

void run_sgd(TrainContext& ctx, std::vector<float>& vertex, std::vector<float>& context,
             std::size_t dim, bool second_order) {
  const auto& config = ctx.config;
  const std::size_t total = ctx.steps;
  const double lr_floor = config.initial_lr * config.min_lr_fraction;
  const std::uint64_t base_seed =
      config.seed ^ (second_order ? 0xA5A5A5A5ULL : 0x5A5A5A5AULL);

  const std::size_t lanes = 1;
  const std::size_t batch_size =
      std::clamp<std::size_t>(ctx.vertex_count / 4, 64, 4096);

  std::vector<std::vector<DeltaShard>> buffers(lanes, std::vector<DeltaShard>(lanes));
  std::vector<std::vector<float>> grads(lanes, std::vector<float>(dim));

  const auto compute_lane = [&](std::size_t lane, std::size_t b0, std::size_t b1) {
    const std::size_t n = b1 - b0;
    const std::size_t chunk = (n + lanes - 1) / lanes;
    const std::size_t lo = b0 + lane * chunk;
    const std::size_t hi = std::min(b1, lo + chunk);
    if (lo >= hi) return;
    auto& shards = buffers[lane];
    float* const grad = grads[lane].data();
    const float* const tgt_base = second_order ? context.data() : vertex.data();
    for (std::size_t step = lo; step < hi; ++step) {
      util::Rng rng{sample_seed(base_seed, step)};
      const double progress = static_cast<double>(step) / static_cast<double>(total);
      const double lr = std::max(lr_floor, config.initial_lr * (1.0 - progress));

      const std::size_t ei = ctx.edge_sampler.sample(rng);
      const bool flip = rng.bernoulli(0.5);
      const graph::VertexId src = flip ? ctx.edge_v[ei] : ctx.edge_u[ei];
      const graph::VertexId dst = flip ? ctx.edge_u[ei] : ctx.edge_v[ei];

      const float* const src_vec = vertex.data() + static_cast<std::size_t>(src) * dim;
      std::fill_n(grad, dim, 0.0f);

      for (std::size_t k = 0; k <= config.negatives; ++k) {
        graph::VertexId target = 0;
        double label = 0.0;
        if (k == 0) {
          target = dst;
          label = 1.0;
        } else {
          target = static_cast<graph::VertexId>(ctx.noise_sampler.sample(rng));
          if (target == dst || target == src) continue;
        }
        const float* const tgt_vec = tgt_base + static_cast<std::size_t>(target) * dim;
        const double dot = util::simd::dot(src_vec, tgt_vec, dim);
        const auto coeff = static_cast<float>((label - sigmoid()(dot)) * lr);
        util::simd::axpy(coeff, tgt_vec, grad, dim);
        DeltaShard& ds = shards[target % lanes];
        ds.keys.push_back((static_cast<std::uint32_t>(target) << 1) |
                          (second_order ? 1u : 0u));
        ds.deltas.resize(ds.deltas.size() + dim);
        util::simd::scale(coeff, src_vec, ds.deltas.data() + ds.deltas.size() - dim, dim);
      }
      DeltaShard& ds = shards[src % lanes];
      ds.keys.push_back(static_cast<std::uint32_t>(src) << 1);
      ds.deltas.insert(ds.deltas.end(), grad, grad + dim);
    }
  };

  const auto apply_shard = [&](std::size_t shard) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      DeltaShard& ds = buffers[lane][shard];
      for (std::size_t i = 0; i < ds.keys.size(); ++i) {
        const std::uint32_t key = ds.keys[i];
        float* const dst = ((key & 1u) ? context.data() : vertex.data()) +
                           static_cast<std::size_t>(key >> 1) * dim;
        util::simd::axpy(1.0f, ds.deltas.data() + i * dim, dst, dim);
      }
      ds.clear();
    }
  };

  for (std::size_t b0 = 0; b0 < total; b0 += batch_size) {
    compute_lane(0, b0, std::min(total, b0 + batch_size));
    apply_shard(0);
  }
}

std::vector<float> train_order(TrainContext& ctx, std::size_t dim, bool second_order) {
  const std::size_t n = ctx.vertex_count;
  std::vector<float> vertex(n * dim);
  std::vector<float> context;
  util::Rng rng{ctx.config.seed * 7919 + (second_order ? 1 : 0)};
  for (auto& x : vertex) {
    x = static_cast<float>((rng.uniform() - 0.5) / static_cast<double>(dim));
  }
  if (second_order) context.assign(n * dim, 0.0f);
  run_sgd(ctx, vertex, context, dim, second_order);
  return vertex;
}

EmbeddingMatrix reference_train_line(const util::CsrGraph& g, const LineConfig& config) {
  std::vector<std::string> names = g.names_copy();
  EmbeddingMatrix out{std::move(names), config.dimension};
  if (g.vertex_count() == 0 || g.edge_count() == 0) return out;

  std::vector<double> noise(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    noise[v] = std::pow(g.weighted_degree(static_cast<std::uint32_t>(v)),
                        config.noise_power);
  }
  TrainContext ctx{g.edge_u(),           g.edge_v(),        g.vertex_count(), config,
                   AliasTable{g.edge_w()}, AliasTable{noise}, 0};
  ctx.steps = config.total_samples != 0 ? config.total_samples
                                        : config.samples_per_edge * g.edge_count();
  ctx.steps = std::max<std::size_t>(ctx.steps, 1);

  const auto write_block = [&](const std::vector<float>& block, std::size_t dim,
                               std::size_t offset) {
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      auto dst = out.row(v);
      if (g.degree(static_cast<std::uint32_t>(v)) == 0) continue;
      for (std::size_t d = 0; d < dim; ++d) dst[offset + d] = block[v * dim + d];
    }
  };

  if (config.order == LineOrder::kFirst) {
    write_block(train_order(ctx, config.dimension, false), config.dimension, 0);
  } else if (config.order == LineOrder::kSecond) {
    write_block(train_order(ctx, config.dimension, true), config.dimension, 0);
  } else {
    const std::size_t first_dim = config.dimension / 2;
    const std::size_t second_dim = config.dimension - first_dim;
    write_block(train_order(ctx, first_dim, false), first_dim, 0);
    write_block(train_order(ctx, second_dim, true), second_dim, first_dim);
  }
  if (config.normalize_output) out.l2_normalize();
  return out;
}

// ------------------------------------------------------------- tests

/// Random weighted graph with a few isolated vertices (they must stay zero)
/// and a few repeated pairs.
graph::WeightedGraph random_graph(std::size_t vertices, std::size_t edges,
                                  std::uint64_t seed) {
  util::Rng rng{seed};
  graph::WeightedGraph g;
  for (std::size_t v = 0; v < vertices; ++v) g.add_vertex("v" + std::to_string(v));
  const std::size_t connected = vertices - vertices / 16;
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.uniform_index(connected));
    auto w = static_cast<graph::VertexId>(rng.uniform_index(connected));
    if (u == w) w = static_cast<graph::VertexId>((w + 1) % connected);
    g.add_edge_unchecked(u, w, rng.uniform(0.05, 3.0));
  }
  return g;
}

void expect_bit_identical(const EmbeddingMatrix& want, const EmbeddingMatrix& got,
                          const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  ASSERT_EQ(want.dimension(), got.dimension()) << what;
  for (std::size_t v = 0; v < want.size(); ++v) {
    const auto a = want.row(v);
    const auto b = got.row(v);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what << ": row " << v << " differs";
  }
}

const char* order_name(LineOrder order) {
  switch (order) {
    case LineOrder::kFirst: return "first";
    case LineOrder::kSecond: return "second";
    case LineOrder::kBoth: return "both";
  }
  return "?";
}

/// Every (order, dimension, threads, entry point) cell against the oracle.
/// The step budget is not a multiple of the batch size, so a partial final
/// batch is always covered.
void check_grid(const graph::WeightedGraph& g, std::size_t samples) {
  const util::CsrGraph csr = graph::to_csr(g);
  for (const LineOrder order : {LineOrder::kFirst, LineOrder::kSecond, LineOrder::kBoth}) {
    for (const std::size_t dim : {std::size_t{13}, std::size_t{24}, std::size_t{128}}) {
      LineConfig config;
      config.dimension = dim;
      config.order = order;
      config.total_samples = samples;
      config.seed = 17 + dim;
      const auto want = reference_train_line(csr, config);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
        config.threads = threads;
        const std::string what = std::string{"order="} + order_name(order) +
                                 " dim=" + std::to_string(dim) +
                                 " threads=" + std::to_string(threads);
        expect_bit_identical(want, train_line(csr, config), what + " csr");
        expect_bit_identical(want, train_line(g, config), what + " weighted");
      }
    }
  }
}

TEST(LineOracle, SmallGraphSixtyFourStepBatches) {
  // V = 200 < 256: batch size clamps to 64.
  check_grid(random_graph(200, 1500, 3), 64 * 40 + 17);
}

TEST(LineOracle, MidGraphVertexScaledBatches) {
  // V = 1500: batch size V/4 = 375, between the clamps.
  check_grid(random_graph(1500, 12000, 5), 375 * 8 + 101);
}

TEST(LineOracle, LargeGraphFourThousandStepBatches) {
  // V = 16400 >= 16384: batch size clamps to 4096.
  check_grid(random_graph(16400, 40000, 7), 4096 * 3 + 555);
}

TEST(LineOracle, NegativeCountsSizeThePerStepArrays) {
  // A step keeps at most negatives + 1 targets, and the kernel's per-batch
  // arrays are sized by that; the grid above runs only the default of 5.
  const util::CsrGraph csr = graph::to_csr(random_graph(1500, 12000, 13));
  for (const std::size_t negatives : {std::size_t{0}, std::size_t{1}, std::size_t{15}}) {
    for (const LineOrder order : {LineOrder::kFirst, LineOrder::kSecond, LineOrder::kBoth}) {
      for (const std::size_t dim : {std::size_t{13}, std::size_t{24}}) {
        LineConfig config;
        config.dimension = dim;
        config.order = order;
        config.negatives = negatives;
        config.total_samples = 375 * 4 + 29;
        config.seed = 31 + negatives;
        const auto want = reference_train_line(csr, config);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
          config.threads = threads;
          expect_bit_identical(want, train_line(csr, config),
                               "negatives=" + std::to_string(negatives) +
                                   " order=" + order_name(order) +
                                   " dim=" + std::to_string(dim) +
                                   " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(LineOracle, SamplesPerEdgeBudgetAndUnnormalizedRows) {
  const auto g = random_graph(90, 400, 11);
  LineConfig config;
  config.dimension = 10;
  config.samples_per_edge = 25;
  config.negatives = 3;
  config.normalize_output = false;
  config.threads = 2;
  expect_bit_identical(reference_train_line(graph::to_csr(g), config), train_line(g, config),
                       "samples_per_edge");
}

}  // namespace
}  // namespace dnsembed::embed
