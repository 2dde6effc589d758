#include "graph/io.hpp"

#include <ostream>

#include "util/artifact.hpp"
#include "util/csv.hpp"

namespace dnsembed::graph {

void save_bipartite_csv(std::ostream& out, const BipartiteGraph& g) {
  util::CsvWriter csv{out};
  csv.write_row({"left", "right"});
  for (VertexId l = 0; l < g.left_count(); ++l) {
    const auto& left_name = g.left_names().name(l);
    for (const VertexId r : g.left_neighbors(l)) {
      csv.write_row({left_name, g.right_names().name(r)});
    }
  }
}

void save_weighted_csv(std::ostream& out, const WeightedGraph& g) {
  util::CsvWriter csv{out};
  csv.write_row({"u", "v", "weight"});
  for (const auto& e : g.edges()) {
    csv.write_row({g.names().name(e.u), g.names().name(e.v), std::to_string(e.weight)});
  }
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.degree(v) == 0) csv.write_row({g.names().name(v), "", ""});
  }
}

namespace {

constexpr std::uint64_t kTagLeftNames = util::arena_tag("LNAMB");
constexpr std::uint64_t kTagLeftNameOffsets = util::arena_tag("LNAMO");
constexpr std::uint64_t kTagRightNames = util::arena_tag("RNAMB");
constexpr std::uint64_t kTagRightNameOffsets = util::arena_tag("RNAMO");
constexpr std::uint64_t kTagAdjOffsets = util::arena_tag("LOFFS");
constexpr std::uint64_t kTagAdjRights = util::arena_tag("LRIDS");

[[noreturn]] void bad_payload(const std::string& context, std::string reason) {
  util::fsio::note_corrupt_detected();
  throw util::CorruptArtifact{context, std::move(reason)};
}

/// One name table: the names back to back plus count+1 offsets into them.
void add_names(util::ArenaWriter& writer, std::uint64_t blob_tag, std::uint64_t offsets_tag,
               const util::StringInterner& names) {
  std::string blob;
  std::vector<std::uint64_t> offsets{0};
  offsets.reserve(names.size() + 1);
  for (const auto& name : names.names()) {
    blob += name;
    offsets.push_back(blob.size());
  }
  writer.add(blob_tag, blob.data(), blob.size());
  writer.add_typed<std::uint64_t>(offsets_tag, offsets);
}

/// Validated views of one name table.
std::vector<std::string_view> read_names(const util::ArenaView& arena, std::uint64_t blob_tag,
                                         std::uint64_t offsets_tag, const std::string& context) {
  const auto blob = arena.section(blob_tag, context);
  const auto offsets = arena.typed<std::uint64_t>(offsets_tag, context);
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != blob.size()) {
    bad_payload(context, "bipartite arena: name offsets do not cover the blob");
  }
  std::vector<std::string_view> names;
  names.reserve(offsets.size() - 1);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1] || offsets[i + 1] > blob.size()) {
      bad_payload(context, "bipartite arena: name offsets not monotone");
    }
    names.push_back(blob.substr(offsets[i], offsets[i + 1] - offsets[i]));
  }
  return names;
}

}  // namespace

std::string bipartite_payload(const BipartiteGraph& g) {
  util::ArenaWriter writer;
  add_names(writer, kTagLeftNames, kTagLeftNameOffsets, g.left_names());
  add_names(writer, kTagRightNames, kTagRightNameOffsets, g.right_names());
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> rights;
  offsets.reserve(g.left_count() + 1);
  rights.reserve(g.edge_count());
  for (VertexId l = 0; l < g.left_count(); ++l) {
    const auto neighbors = g.left_neighbors(l);
    rights.insert(rights.end(), neighbors.begin(), neighbors.end());
    offsets.push_back(rights.size());
  }
  writer.add_typed<std::uint64_t>(kTagAdjOffsets, offsets);
  writer.add_typed<std::uint32_t>(kTagAdjRights, rights);
  return writer.payload(kBipartiteKind);
}

BipartiteGraph parse_bipartite_payload(std::string_view payload, const std::string& context) {
  const auto arena = util::ArenaView::parse(payload, context);
  const auto lefts = read_names(arena, kTagLeftNames, kTagLeftNameOffsets, context);
  const auto right_names = read_names(arena, kTagRightNames, kTagRightNameOffsets, context);
  const auto offsets = arena.typed<std::uint64_t>(kTagAdjOffsets, context);
  const auto rights = arena.typed<std::uint32_t>(kTagAdjRights, context);
  if (offsets.size() != lefts.size() + 1 || offsets.front() != 0 ||
      offsets.back() != rights.size()) {
    bad_payload(context, "bipartite arena: adjacency offsets do not cover the edges");
  }
  BipartiteGraph g;
  for (std::size_t i = 0; i < lefts.size(); ++i) {
    if (g.add_left(lefts[i]) != i) bad_payload(context, "bipartite arena: duplicate left name");
  }
  for (std::size_t i = 0; i < right_names.size(); ++i) {
    if (g.add_right(right_names[i]) != i) {
      bad_payload(context, "bipartite arena: duplicate right name");
    }
  }
  for (VertexId l = 0; l < lefts.size(); ++l) {
    if (offsets[l] > offsets[l + 1] || offsets[l + 1] > rights.size()) {
      bad_payload(context, "bipartite arena: adjacency offsets not monotone");
    }
    for (std::uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
      if (rights[e] >= right_names.size()) {
        bad_payload(context, "bipartite arena: right id out of range");
      }
      g.add_edge(l, rights[e]);
    }
  }
  g.finalize();
  return g;
}

util::CsrGraph to_csr(const WeightedGraph& g) {
  std::vector<std::uint32_t> edge_u;
  std::vector<std::uint32_t> edge_v;
  std::vector<double> edge_w;
  edge_u.reserve(g.edge_count());
  edge_v.reserve(g.edge_count());
  edge_w.reserve(g.edge_count());
  for (const auto& e : g.edges()) {
    edge_u.push_back(e.u);
    edge_v.push_back(e.v);
    edge_w.push_back(e.weight);
  }
  return util::CsrGraph::build(g.vertex_count(), edge_u, edge_v, edge_w, g.names().names());
}

WeightedGraph from_csr(const util::CsrGraph& g) {
  WeightedGraph out;
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    if (g.has_names()) {
      out.add_vertex(g.name(v));
    } else {
      out.add_vertex(std::to_string(v));
    }
  }
  const auto eu = g.edge_u();
  const auto ev = g.edge_v();
  const auto ew = g.edge_w();
  for (std::size_t i = 0; i < eu.size(); ++i) {
    out.add_edge_unchecked(eu[i], ev[i], ew[i]);
  }
  return out;
}

util::CsrGraph load_csr_file(const std::string& path) {
  return util::CsrGraph::load_file(path);
}

}  // namespace dnsembed::graph
