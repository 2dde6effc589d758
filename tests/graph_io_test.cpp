// Tests for graph persistence: the CSV exports and the durable forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/io.hpp"
#include "util/artifact.hpp"
#include "util/csr.hpp"

namespace dnsembed::graph {
namespace {

TEST(GraphIo, BipartiteRoundTrip) {
  BipartiteGraph g;
  g.add_edge("h1", "a.com");
  g.add_edge("h1", "b.com");
  g.add_edge("h2", "a.com");
  g.finalize();

  const auto loaded = parse_bipartite_payload(bipartite_payload(g), "test");
  EXPECT_EQ(loaded.left_count(), 2u);
  EXPECT_EQ(loaded.right_count(), 2u);
  EXPECT_EQ(loaded.edge_count(), 3u);
  const auto h1 = *loaded.left_names().find("h1");
  EXPECT_EQ(loaded.left_degree(h1), 2u);
}

// The durable form keeps every vertex id: a reloaded graph numbers its
// domains like the saved one, so what is projected from it is identical.
TEST(GraphIo, BipartiteArtifactKeepsVertexIds) {
  // Right ids in insertion order (c, b, a) differ from the order a
  // left-major walk meets them (c, a, b); z.com has no edge at all.
  BipartiteGraph g;
  g.add_edge("h2", "c.com");
  g.add_edge("h1", "b.com");
  g.add_edge("h1", "a.com");
  g.add_edge("h2", "a.com");
  g.add_right("z.com");
  g.finalize();

  const auto loaded = parse_bipartite_payload(bipartite_payload(g), "test");
  EXPECT_EQ(loaded.left_names().names(), g.left_names().names());
  EXPECT_EQ(loaded.right_names().names(), g.right_names().names());
  ASSERT_EQ(loaded.edge_count(), g.edge_count());
  for (VertexId l = 0; l < g.left_count(); ++l) {
    EXPECT_TRUE(std::ranges::equal(loaded.left_neighbors(l), g.left_neighbors(l)));
  }
  for (VertexId r = 0; r < g.right_count(); ++r) {
    EXPECT_TRUE(std::ranges::equal(loaded.right_neighbors(r), g.right_neighbors(r)));
  }
}

TEST(GraphIo, BipartiteRejectsMalformed) {
  BipartiteGraph g;
  g.add_edge("h1", "a.com");
  g.finalize();
  const auto payload = bipartite_payload(g);
  EXPECT_THROW(parse_bipartite_payload("left,right\nh1,a.com\n", "test"), util::CorruptArtifact);
  EXPECT_THROW(parse_bipartite_payload(payload.substr(0, payload.size() - 8), "test"),
               util::CorruptArtifact);

  // Offsets that overshoot their section and come back down must be
  // rejected before anything is read through them.
  const auto arena = [](std::vector<std::uint64_t> name_offsets,
                        std::vector<std::uint64_t> adjacency_offsets) {
    const std::string lefts = "h1h2";
    const std::vector<std::uint64_t> right_offsets{0, 5};
    const std::vector<std::uint32_t> rights{0};
    util::ArenaWriter w;
    w.add(util::arena_tag("LNAMB"), lefts.data(), lefts.size());
    w.add_typed<std::uint64_t>(util::arena_tag("LNAMO"), name_offsets);
    w.add(util::arena_tag("RNAMB"), "a.com", 5);
    w.add_typed<std::uint64_t>(util::arena_tag("RNAMO"), right_offsets);
    w.add_typed<std::uint64_t>(util::arena_tag("LOFFS"), adjacency_offsets);
    w.add_typed<std::uint32_t>(util::arena_tag("LRIDS"), rights);
    return w.payload(kBipartiteKind);
  };
  EXPECT_EQ(parse_bipartite_payload(arena({0, 2, 4}, {0, 1, 1}), "test").edge_count(), 1u);
  EXPECT_THROW(parse_bipartite_payload(arena({0, 9, 9, 4}, {0, 1, 1, 1}), "test"),
               util::CorruptArtifact);
  EXPECT_THROW(parse_bipartite_payload(arena({0, 2, 4}, {0, 9, 1}), "test"),
               util::CorruptArtifact);
}

TEST(GraphIo, WeightedRoundTripWithIsolatedVertices) {
  WeightedGraph g;
  g.add_edge("a.com", "b.com", 0.5);
  g.add_edge("a.com", "c.com", 0.125);
  g.add_vertex("lonely.net");

  std::stringstream csv;
  save_weighted_csv(csv, g);
  EXPECT_NE(csv.str().find("lonely.net,,"), std::string::npos);

  const auto loaded = from_csr(to_csr(g));
  EXPECT_EQ(loaded.vertex_count(), 4u);
  EXPECT_EQ(loaded.edge_count(), 2u);
  const auto a = *loaded.names().find("a.com");
  const auto b = *loaded.names().find("b.com");
  ASSERT_TRUE(loaded.has_edge(a, b));
  EXPECT_DOUBLE_EQ(loaded.weighted_degree(a), 0.625);
  const auto lonely = loaded.names().find("lonely.net");
  ASSERT_TRUE(lonely.has_value());
  EXPECT_EQ(loaded.degree(*lonely), 0u);
}

TEST(GraphIo, EmptyGraphsRoundTrip) {
  BipartiteGraph bg;
  bg.finalize();
  EXPECT_EQ(parse_bipartite_payload(bipartite_payload(bg), "test").edge_count(), 0u);

  EXPECT_EQ(from_csr(to_csr(WeightedGraph{})).vertex_count(), 0u);
}

}  // namespace
}  // namespace dnsembed::graph
