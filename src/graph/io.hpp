// Graph persistence: CSV edge-list exports that let the CLI materialize the
// bipartite graphs and similarity graphs for inspection in other tools
// (gephi, networkx, spreadsheets), and the binary durable forms the
// pipeline's artifacts use.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/bipartite.hpp"
#include "graph/weighted_graph.hpp"
#include "util/csr.hpp"

namespace dnsembed::graph {

/// "left,right" rows, one per distinct edge, with a header line.
void save_bipartite_csv(std::ostream& out, const BipartiteGraph& g);

/// "u,v,weight" rows plus isolated vertices as "name,," rows.
void save_weighted_csv(std::ostream& out, const WeightedGraph& g);

// --- Durable artifact forms. The CSV stream forms above are the
// human/interop format (gephi, spreadsheets); the forms below are the
// pipeline's durable intermediates, payloads of checksummed containers
// (util/artifact.hpp).

/// Artifact kind of bipartite_payload.
inline constexpr std::string_view kBipartiteKind = "bipartite-arena";

/// Arena payload for a finalized bipartite graph: both vertex-name lists
/// in id order, then each left vertex's sorted right ids. Ids round-trip
/// exactly (isolated vertices included), so a reloaded graph numbers its
/// vertices like the graph that was saved and everything projected from
/// it is bit-identical.
std::string bipartite_payload(const BipartiteGraph& g);
/// Inverse of bipartite_payload; throws util::CorruptArtifact (with
/// `context` as the path) on any structural defect. Result is finalized.
BipartiteGraph parse_bipartite_payload(std::string_view payload, const std::string& context);

// --- CSR arena forms (util/csr.hpp). Binary struct-of-arrays payloads
// with a memory-mapped zero-copy load path: the durable similarity-graph
// format at million-domain scale. Weights round-trip by bit pattern (raw
// f64 sections), so a reloaded graph reproduces embeddings bit-identically.

/// Convert to the CSR arena form. Edge order is preserved (LINE's edge
/// sampler addresses edges positionally).
util::CsrGraph to_csr(const WeightedGraph& g);

/// Materialize a mutable WeightedGraph from a CSR arena (PipelineResult's
/// similarity graphs, interop; LINE consumes CsrGraph directly).
WeightedGraph from_csr(const util::CsrGraph& g);

/// mmap zero-copy load of the CSR form (util::CsrGraph::load_file).
util::CsrGraph load_csr_file(const std::string& path);

}  // namespace dnsembed::graph
