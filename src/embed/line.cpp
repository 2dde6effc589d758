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

/// Rows of one matrix that a batch writes, listed once each so the
/// copy-back touches only them. Marking is branchless: whether a row is
/// new is a coin flip early in a batch, too costly to predict.
struct TouchedRows {
  std::vector<std::uint8_t> mark;
  // The first `count` entries are live. add() writes one past them before
  // it knows whether the row is new, so a full list needs one spare slot.
  std::vector<std::uint32_t> ids;
  std::size_t count = 0;

  explicit TouchedRows(std::size_t rows) : mark(rows, 0), ids(rows + 1) {}

  void add(std::uint32_t v) noexcept {
    ids[count] = v;
    count += mark[v] ^ 1u;
    mark[v] = 1;
  }

  /// Copy the listed rows from `live` to `snap` and clear the list.
  void copy_back(const float* live, float* snap, std::size_t dim) noexcept {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t offset = static_cast<std::size_t>(ids[j]) * dim;
      std::copy_n(live + offset, dim, snap + offset);
      mark[ids[j]] = 0;
    }
    count = 0;
  }
};

/// One SGD objective pass (first- or second-order) writing `dim`-wide rows
/// into `vertex` (and using `context` when second_order).
///
/// Batch-synchronous: every step draws from its own counter-based Rng and
/// reads the rows as they stood at the batch start. Each batch runs five
/// passes over its steps:
///  - stage: seed each step's Rng, draw its edge bucket, prefetch the record;
///  - draw: the bucket acceptance, the flip and the noise draws, in that
///    order; keep the source, the targets that survive the skip, and the lr;
///  - dot: one dot per target against the batch-start snapshot rows, turned
///    into coefficients through the sigmoid table;
///  - apply: one sgd_apply call per step, in step order, adding the updates
///    straight into the live rows;
///  - copy-back: the touched rows go from the live matrices to the snapshot.
/// Every output bit is thus fixed by (seed, config, graph).
void run_sgd(const TrainContext& ctx, std::vector<float>& vertex,
             std::vector<float>& context, std::size_t dim, bool second_order) {
  OBS_SPAN(second_order ? "embed.line.worker.order2" : "embed.line.worker.order1");
  const auto& config = ctx.config;
  const std::size_t total = ctx.steps;
  const double lr_floor = config.initial_lr * config.min_lr_fraction;
  const std::uint64_t base_seed =
      config.seed ^ (second_order ? 0xA5A5A5A5ULL : 0x5A5A5A5AULL);
  const SigmoidTable& sig = sigmoid();

  // One relaxed add per batch; the total equals the SGD sample count.
  static obs::Counter& samples_counter = obs::metrics().counter("embed.line.samples");

  // Per-row staleness is roughly batch_size * (negatives + 2) / vertex_count
  // stale steps; tying the batch to the vertex count keeps it constant.
  const std::size_t batch_size =
      std::clamp<std::size_t>(ctx.vertex_count / 4, 64, 4096);

  // Sources are always vertex rows; targets are context rows in the
  // second-order objective.
  const std::size_t target_side = second_order ? 1 : 0;
  float* const live[2] = {vertex.data(), context.data()};
  std::vector<float> vertex_snap = vertex;
  std::vector<float> context_snap = context;
  float* const snap[2] = {vertex_snap.data(), context_snap.data()};
  const auto row = [dim](auto* base, std::uint32_t v) {
    return base + static_cast<std::size_t>(v) * dim;
  };
  // One list per matrix: a packed (row << 1 | matrix) key would alias rows
  // once a graph reaches 2^31 vertices.
  TouchedRows touched[2] = {TouchedRows{ctx.vertex_count},
                            TouchedRows{second_order ? ctx.vertex_count : 0}};
  TouchedRows& touched_targets = touched[target_side];

  struct Staged {
    util::Rng rng;
    const EdgeBucket* bucket;
  };
  // Per-step arrays. A step keeps at most negatives + 1 targets, the
  // positive first; `coeffs` holds their dots and then, in place, their
  // coefficients.
  const std::size_t cap = std::min(batch_size, total);
  const std::size_t per_step = config.negatives + 1;
  std::vector<Staged> staged(cap);
  std::vector<std::uint32_t> step_src(cap);
  std::vector<std::uint32_t> step_count(cap);
  std::vector<double> step_lr(cap);
  std::vector<std::uint32_t> kept_targets(cap * per_step);
  std::vector<float> coeffs(cap * per_step);
  std::vector<const float*> tgt_rows(per_step);
  std::vector<float*> tgt_out(per_step);

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
      step_lr[i] = std::max(lr_floor, config.initial_lr * (1.0 - progress));

      const bool own = rng.uniform() < bucket.acceptance;
      const std::uint32_t eu = own ? bucket.u : bucket.alias_u;
      const std::uint32_t ev = own ? bucket.v : bucket.alias_v;
      // Random orientation: the graph is undirected, LINE's updates are not.
      const bool flip = rng.bernoulli(0.5);
      const std::uint32_t src = flip ? ev : eu;
      const std::uint32_t dst = flip ? eu : ev;

      std::uint32_t* const kept = kept_targets.data() + i * per_step;
      std::size_t count = 0;
      kept[count++] = dst;
      for (std::size_t k = 1; k <= config.negatives; ++k) {
        const auto target = static_cast<std::uint32_t>(ctx.noise_sampler.sample(rng));
        if (target == dst || target == src) continue;
        kept[count++] = target;
      }
      step_src[i] = src;
      step_count[i] = static_cast<std::uint32_t>(count);
      touched[0].add(src);
      for (std::size_t c = 0; c < count; ++c) touched_targets.add(kept[c]);
    }

    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t* const kept = kept_targets.data() + i * per_step;
      const std::size_t count = step_count[i];
      const float* const src_row = row(snap[0], step_src[i]);
      float* const coeff = coeffs.data() + i * per_step;
      for (std::size_t c = 0; c < count; ++c) {
        coeff[c] = util::simd::dot(src_row, row(snap[target_side], kept[c]), dim);
      }
      // The positive target is first (label 1), the negatives follow (label
      // 0). `0.0 - s` is not `-s`: at s == 0 it keeps the +0 coefficient.
      const double lr = step_lr[i];
      coeff[0] = static_cast<float>((1.0 - sig(coeff[0])) * lr);
      for (std::size_t c = 1; c < count; ++c) {
        coeff[c] = static_cast<float>((0.0 - sig(coeff[c])) * lr);
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t* const kept = kept_targets.data() + i * per_step;
      const std::size_t count = step_count[i];
      for (std::size_t c = 0; c < count; ++c) {
        tgt_rows[c] = row(snap[target_side], kept[c]);
        tgt_out[c] = row(live[target_side], kept[c]);
      }
      const std::uint32_t src = step_src[i];
      util::simd::sgd_apply(row(snap[0], src), tgt_rows.data(), coeffs.data() + i * per_step,
                            count, tgt_out.data(), row(live[0], src), dim);
    }

    touched[0].copy_back(live[0], snap[0], dim);
    touched[1].copy_back(live[1], snap[1], dim);
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
  if (!(std::isfinite(config.initial_lr) && config.initial_lr > 0.0)) {
    throw std::invalid_argument{"train_line: initial_lr must be finite and positive"};
  }
  if (!(config.min_lr_fraction >= 0.0 && config.min_lr_fraction <= 1.0)) {
    throw std::invalid_argument{"train_line: min_lr_fraction must be in [0, 1]"};
  }
  if (!std::isfinite(config.noise_power)) {
    throw std::invalid_argument{"train_line: noise_power must be finite"};
  }

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
