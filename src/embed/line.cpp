#include "embed/line.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <stdexcept>
#include <vector>

#include "embed/alias.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/simd.hpp"

namespace dnsembed::embed {

namespace {

/// Precomputed sigmoid over [-kSigmoidBound, kSigmoidBound].
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

/// Murmur3-style 64-bit finalizer: full-avalanche mix for counter-based
/// per-sample seeds. SplitMix64 reseeding alone would hand adjacent step
/// indices overlapping state windows; the finalizer decorrelates them.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Seed for SGD step `step`: a pure function of (base seed, step index), so
/// the sample sequence is identical for every thread count and partition.
constexpr std::uint64_t sample_seed(std::uint64_t base, std::uint64_t step) noexcept {
  return mix64(base ^ mix64(step + 0x9e3779b97f4a7c15ULL));
}

/// One edge alias-table bucket with both candidate edges inlined: the
/// acceptance test and the endpoints of the bucket's own edge and of its
/// alias edge sit in one 24-byte record, so an edge draw touches one cold
/// line instead of four arrays (acceptance, alias, edge_u, edge_v).
struct EdgeBucket {
  double acceptance;
  std::uint32_t u;
  std::uint32_t v;
  std::uint32_t alias_u;
  std::uint32_t alias_v;
};

/// Repack the edge alias table into EdgeBuckets. The table is a temporary:
/// the records replace its arrays rather than sitting beside them.
std::vector<EdgeBucket> pack_edge_buckets(const util::CsrGraph& g) {
  const AliasTable table{g.edge_w()};
  const auto edge_u = g.edge_u();
  const auto edge_v = g.edge_v();
  std::vector<EdgeBucket> buckets(table.size());
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::size_t a = table.alias(b);
    buckets[b] = {table.acceptance(b), edge_u[b], edge_v[b], edge_u[a], edge_v[a]};
  }
  return buckets;
}

/// Everything run_sgd reads about the graph: the packed edge sampler and
/// the noise sampler over weighted degrees. Read-only during training, so
/// the two kBoth objectives share one context across threads.
struct TrainContext {
  std::vector<EdgeBucket> edges;
  AliasTable noise_sampler;
  std::size_t vertex_count = 0;
  const LineConfig& config;
  std::size_t steps = 0;
};

/// One SGD objective pass (first- or second-order) writing `dim`-wide rows
/// into `vertex` (and using `context` when second_order).
///
/// Batch-synchronous: every step draws from its own counter-based Rng and
/// reads the rows as they stood at the batch start. A staging pass seeds
/// each step's Rng, draws its edge bucket and prefetches the record; the
/// compute pass reads rows from the batch-start snapshot, adds updates
/// straight into the live rows in step order, and finally copies the
/// touched rows back into the snapshot. Every output bit is thus fixed by
/// (seed, config, graph).
void run_sgd(const TrainContext& ctx, std::vector<float>& vertex,
             std::vector<float>& context, std::size_t dim, bool second_order) {
  OBS_SPAN(second_order ? "embed.line.worker.order2" : "embed.line.worker.order1");
  const auto& config = ctx.config;
  const std::size_t total = ctx.steps;
  const double lr_floor = config.initial_lr * config.min_lr_fraction;
  const std::uint64_t base_seed =
      config.seed ^ (second_order ? 0xA5A5A5A5ULL : 0x5A5A5A5AULL);

  // One relaxed add per batch; the total equals the SGD sample count.
  static obs::Counter& samples_counter = obs::metrics().counter("embed.line.samples");

  // Per-row staleness is roughly batch_size * (negatives + 2) / vertex_count
  // stale steps; tying the batch to the vertex count keeps it constant.
  const std::size_t batch_size =
      std::clamp<std::size_t>(ctx.vertex_count / 4, 64, 4096);

  // Row key = (vertex << 1) | is_context. Sources are always vertex rows;
  // targets are context rows in the second-order objective.
  const std::uint32_t target_bit = second_order ? 1u : 0u;
  float* const live[2] = {vertex.data(), context.data()};
  std::vector<float> vertex_snap = vertex;
  std::vector<float> context_snap = context;
  float* const snap[2] = {vertex_snap.data(), context_snap.data()};
  const auto row = [dim](auto* base, std::uint32_t v) {
    return base + static_cast<std::size_t>(v) * dim;
  };

  std::vector<std::uint8_t> touched_mark(ctx.vertex_count * 2, 0);
  std::vector<std::uint32_t> touched;
  const auto update = [&](std::uint32_t key, float alpha, const float* x) {
    util::simd::axpy(alpha, x, row(live[key & 1u], key >> 1), dim);
    if (touched_mark[key] == 0) {
      touched_mark[key] = 1;
      touched.push_back(key);
    }
  };

  struct Staged {
    util::Rng rng;
    const EdgeBucket* bucket;
  };
  std::vector<Staged> staged(std::min(batch_size, total));
  std::vector<float> grad(dim);

  for (std::size_t b0 = 0; b0 < total; b0 += batch_size) {
    const std::size_t n = std::min(total - b0, batch_size);
    for (std::size_t i = 0; i < n; ++i) {
      util::Rng rng{sample_seed(base_seed, b0 + i)};
      const EdgeBucket* bucket = &ctx.edges[rng.uniform_index(ctx.edges.size())];
      __builtin_prefetch(bucket);
      staged[i] = {rng, bucket};
    }

    for (std::size_t i = 0; i < n; ++i) {
      util::Rng& rng = staged[i].rng;
      const EdgeBucket& bucket = *staged[i].bucket;
      const double progress = static_cast<double>(b0 + i) / static_cast<double>(total);
      const double lr = std::max(lr_floor, config.initial_lr * (1.0 - progress));

      const bool own = rng.uniform() < bucket.acceptance;
      const std::uint32_t eu = own ? bucket.u : bucket.alias_u;
      const std::uint32_t ev = own ? bucket.v : bucket.alias_v;
      // Random orientation: the graph is undirected, LINE's updates are not.
      const bool flip = rng.bernoulli(0.5);
      const std::uint32_t src = flip ? ev : eu;
      const std::uint32_t dst = flip ? eu : ev;

      const float* const src_vec = row(snap[0], src);
      std::fill(grad.begin(), grad.end(), 0.0f);

      for (std::size_t k = 0; k <= config.negatives; ++k) {
        std::uint32_t target = dst;
        double label = 1.0;
        if (k != 0) {
          target = static_cast<std::uint32_t>(ctx.noise_sampler.sample(rng));
          if (target == dst || target == src) continue;
          label = 0.0;
        }
        const float* const tgt_vec = row(snap[target_bit], target);
        const double dot = util::simd::dot(src_vec, tgt_vec, dim);
        const auto coeff = static_cast<float>((label - sigmoid()(dot)) * lr);
        util::simd::axpy(coeff, tgt_vec, grad.data(), dim);
        update((target << 1) | target_bit, coeff, src_vec);
      }
      update(src << 1, 1.0f, grad.data());
    }

    for (const std::uint32_t key : touched) {
      std::copy_n(row(live[key & 1u], key >> 1), dim, row(snap[key & 1u], key >> 1));
      touched_mark[key] = 0;
    }
    touched.clear();
    samples_counter.add(n);
  }
}

/// Train one objective and return the raw (unnormalized) embedding block.
std::vector<float> train_order(const TrainContext& ctx, std::size_t dim, bool second_order) {
  const std::size_t n = ctx.vertex_count;
  std::vector<float> vertex(n * dim);
  std::vector<float> context;
  util::Rng rng{ctx.config.seed * 7919 + (second_order ? 1 : 0)};
  for (auto& x : vertex) {
    x = static_cast<float>((rng.uniform() - 0.5) / static_cast<double>(dim));
  }
  if (second_order) context.assign(n * dim, 0.0f);  // word2vec-style zero init
  run_sgd(ctx, vertex, context, dim, second_order);
  return vertex;
}

}  // namespace

std::size_t effective_threads(const LineConfig& config) noexcept {
  return config.order == LineOrder::kBoth && config.threads != 1 ? 2 : 1;
}

EmbeddingMatrix train_line(const graph::WeightedGraph& g, const LineConfig& config) {
  // to_csr preserves g.edges() order, so the edge sampler draws the same
  // sequence through either entry point.
  return train_line(graph::to_csr(g), config);
}

EmbeddingMatrix train_line(const util::CsrGraph& g, const LineConfig& config) {
  OBS_SPAN("embed.line.train");
  if (config.dimension == 0) throw std::invalid_argument{"train_line: zero dimension"};
  if (config.order == LineOrder::kBoth && config.dimension < 2) {
    throw std::invalid_argument{"train_line: dimension too small to split"};
  }
  if (config.initial_lr <= 0.0) throw std::invalid_argument{"train_line: non-positive lr"};

  std::vector<std::string> names;
  if (g.has_names()) {
    names = g.names_copy();
  } else {
    names.reserve(g.vertex_count());
    for (std::size_t v = 0; v < g.vertex_count(); ++v) names.push_back(std::to_string(v));
  }
  EmbeddingMatrix out{std::move(names), config.dimension};
  if (g.vertex_count() == 0) return out;
  if (g.edge_count() == 0) return out;  // all isolated -> all-zero rows

  // Samplers shared by both objectives. Edge weights come straight from
  // the arena's EDGW section; noise degrees from the WDEG section.
  std::vector<double> noise(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    noise[v] = std::pow(g.weighted_degree(static_cast<std::uint32_t>(v)),
                        config.noise_power);
  }
  TrainContext ctx{pack_edge_buckets(g), AliasTable{noise}, g.vertex_count(), config, 0};
  ctx.steps = config.total_samples != 0 ? config.total_samples
                                        : config.samples_per_edge * g.edge_count();
  ctx.steps = std::max<std::size_t>(ctx.steps, 1);

  const auto write_block = [&](const std::vector<float>& block, std::size_t dim,
                               std::size_t offset) {
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      auto dst = out.row(v);
      if (g.degree(static_cast<std::uint32_t>(v)) == 0) continue;  // keep zeros
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
    // The objectives share nothing mutable: each has its own rows and seeds,
    // so training them concurrently cannot change a bit of the output.
    std::future<std::vector<float>> second;
    if (effective_threads(config) == 2) {
      second = std::async(std::launch::async,
                          [&] { return train_order(ctx, second_dim, true); });
    }
    write_block(train_order(ctx, first_dim, false), first_dim, 0);
    write_block(second.valid() ? second.get() : train_order(ctx, second_dim, true),
                second_dim, first_dim);
  }
  if (config.normalize_output) out.l2_normalize();
  return out;
}

}  // namespace dnsembed::embed
