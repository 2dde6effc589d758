// Deterministic LINE: the trained embedding must be bit-identical for every
// thread count. Sample draws come from counter-based per-step seeds and
// config.threads only decides whether kBoth's two objectives (which share
// no mutable state) train concurrently, so it may only change throughput —
// never a single output bit. Labeled "simd;concurrency" so the TSan preset
// checks the two-objective threads for races.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "embed/embedding.hpp"
#include "embed/line.hpp"
#include "graph/weighted_graph.hpp"

namespace dnsembed::embed {
namespace {

graph::WeightedGraph community_graph(std::size_t communities, std::size_t size_each) {
  graph::WeightedGraph g;
  for (std::size_t c = 0; c < communities; ++c) {
    for (std::size_t i = 0; i < size_each; ++i) {
      g.add_vertex("c" + std::to_string(c) + "_" + std::to_string(i));
    }
  }
  for (std::size_t c = 0; c < communities; ++c) {
    const auto base = static_cast<graph::VertexId>(c * size_each);
    for (std::size_t i = 0; i < size_each; ++i) {
      for (std::size_t j = i + 1; j < size_each; ++j) {
        g.add_edge(base + static_cast<graph::VertexId>(i),
                   base + static_cast<graph::VertexId>(j), 1.0 + 0.1 * (i + j));
      }
    }
  }
  // Weak bridges so the graph is connected.
  for (std::size_t c = 1; c < communities; ++c) {
    g.add_edge(static_cast<graph::VertexId>((c - 1) * size_each),
               static_cast<graph::VertexId>(c * size_each), 0.05);
  }
  return g;
}

/// Bitwise embedding comparison: float-exact, no tolerance.
void expect_bit_identical(const EmbeddingMatrix& a, const EmbeddingMatrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.dimension(), b.dimension()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto ra = a.row(v);
    const auto rb = b.row(v);
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)), 0)
        << what << ": row " << v << " differs";
  }
}

TEST(LineDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto g = community_graph(3, 8);
  LineConfig config;
  config.dimension = 16;
  config.samples_per_edge = 120;
  config.seed = 1234;

  config.threads = 1;
  const auto base = train_line(g, config);
  for (const std::size_t threads : {2u, 4u}) {
    config.threads = threads;
    const auto m = train_line(g, config);
    expect_bit_identical(base, m, "threads=" + std::to_string(threads));
  }
}

TEST(LineDeterminism, HoldsForEverySingleOrder) {
  const auto g = community_graph(2, 6);
  for (const LineOrder order : {LineOrder::kFirst, LineOrder::kSecond}) {
    LineConfig config;
    config.dimension = 8;
    config.order = order;
    config.samples_per_edge = 100;
    config.seed = 77;

    config.threads = 1;
    const auto base = train_line(g, config);
    config.threads = 4;
    const auto m = train_line(g, config);
    expect_bit_identical(base, m, "order=" + std::to_string(static_cast<int>(order)));
  }
}

TEST(LineDeterminism, ZeroThreadsMeansAutoAndStaysBitIdentical) {
  const auto g = community_graph(2, 6);
  LineConfig config;
  config.dimension = 8;
  config.samples_per_edge = 80;
  config.seed = 5;

  config.threads = 1;
  const auto base = train_line(g, config);
  config.threads = 0;  // two objectives on two threads
  const auto m = train_line(g, config);
  expect_bit_identical(base, m, "threads=0");
}

TEST(LineDeterminism, RepeatedMultithreadedRunsAgree) {
  const auto g = community_graph(3, 8);
  LineConfig config;
  config.dimension = 16;
  config.samples_per_edge = 120;
  config.seed = 9;
  config.threads = 4;
  const auto a = train_line(g, config);
  const auto b = train_line(g, config);
  expect_bit_identical(a, b, "repeat");
}

TEST(LineDeterminism, SeedStillChangesTheEmbedding) {
  const auto g = community_graph(2, 6);
  LineConfig config;
  config.dimension = 8;
  config.samples_per_edge = 80;
  config.threads = 4;
  config.seed = 1;
  const auto a = train_line(g, config);
  config.seed = 2;
  const auto b = train_line(g, config);
  bool any_diff = false;
  for (std::size_t v = 0; v < a.size() && !any_diff; ++v) {
    const auto ra = a.row(v);
    const auto rb = b.row(v);
    any_diff = std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)) != 0;
  }
  EXPECT_TRUE(any_diff) << "different seeds must not collide bit-for-bit";
}

}  // namespace
}  // namespace dnsembed::embed
