// Walker's alias method: O(n) construction, O(1) sampling from a discrete
// distribution. LINE samples millions of edges and negative vertices per
// training run, so constant-time draws matter.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace dnsembed::embed {

class AliasTable {
 public:
  /// Build from finite non-negative weights (at least one must be positive;
  /// throws std::invalid_argument otherwise, including for NaN or inf). The
  /// span form reads straight from mapped arena sections (util/csr.hpp).
  explicit AliasTable(std::span<const double> weights);
  explicit AliasTable(const std::vector<double>& weights)
      : AliasTable{std::span<const double>{weights}} {}

  /// Draw an index with probability proportional to its weight. Inline:
  /// LINE draws five noise vertices per SGD step.
  std::size_t sample(util::Rng& rng) const noexcept {
    const std::size_t bucket = rng.uniform_index(prob_.size());
    return rng.uniform() < prob_[bucket] ? bucket : alias_[bucket];
  }

  std::size_t size() const noexcept { return prob_.size(); }

  /// Exact sampling probability of index i (for tests).
  double probability(std::size_t i) const noexcept;

  /// Bucket internals: sample() draws a bucket uniformly, keeps it with
  /// probability acceptance(bucket) and otherwise returns alias(bucket).
  /// LINE repacks these into its own edge records (embed/line.cpp).
  double acceptance(std::size_t bucket) const noexcept { return prob_[bucket]; }
  std::size_t alias(std::size_t bucket) const noexcept { return alias_[bucket]; }

 private:
  std::vector<double> prob_;        // acceptance probability per bucket
  std::vector<std::size_t> alias_;  // fallback index per bucket
  std::vector<double> pmf_;         // normalized input, kept for probability()
};

}  // namespace dnsembed::embed
