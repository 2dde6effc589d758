// Differential test of DNS ingest: GraphBuilderSink resolves each log entry
// to vertex ids through views into a stack buffer, a per-e2LD slot table,
// an address id map and a cached minute bucket. The oracle below is the
// straightforward string-per-event builder; both must produce identical
// HDBG/DIBG/DTBG graphs — the same names in the same id order and the same
// adjacency — on a simulated adversarial trace and on hand-built edge
// cases (case folding, trailing dots, public suffixes, invalid, empty and
// over-long names, missing addresses, timestamps that go backwards or
// negative).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/behavior.hpp"
#include "trace/generator.hpp"

namespace dnsembed::core {
namespace {

// The string-per-event ingest: one e2LD string, one bucket string and one
// address string per entry, each interned by the graph.
class StringIngestOracle final : public trace::TraceSink {
 public:
  explicit StringIngestOracle(std::int64_t bucket_seconds) : bucket_seconds_{bucket_seconds} {}
  void on_dns(const dns::LogEntry& entry) override {
    const std::string e2ld = dns::PublicSuffixList::builtin().e2ld_or_self(entry.qname);
    hdbg.add_edge(entry.host, e2ld);
    dtbg.add_edge("m" + std::to_string(entry.timestamp / bucket_seconds_), e2ld);
    for (const auto& ip : entry.addresses) dibg.add_edge(ip.to_string(), e2ld);
  }
  graph::BipartiteGraph hdbg, dibg, dtbg;

 private:
  std::int64_t bucket_seconds_;
};

void expect_same_graph(graph::BipartiteGraph expected, graph::BipartiteGraph actual,
                       const char* which) {
  SCOPED_TRACE(which);
  expected.finalize();
  ASSERT_TRUE(actual.finalized());
  ASSERT_EQ(actual.left_names().names(), expected.left_names().names());
  ASSERT_EQ(actual.right_names().names(), expected.right_names().names());
  EXPECT_EQ(actual.edge_count(), expected.edge_count());
  for (graph::VertexId l = 0; l < expected.left_count(); ++l) {
    const auto want = expected.left_neighbors(l);
    const auto got = actual.left_neighbors(l);
    ASSERT_EQ(std::vector<graph::VertexId>(got.begin(), got.end()),
              std::vector<graph::VertexId>(want.begin(), want.end()))
        << "left " << expected.left_names().name(l);
  }
  for (graph::VertexId r = 0; r < expected.right_count(); ++r) {
    const auto want = expected.right_neighbors(r);
    const auto got = actual.right_neighbors(r);
    ASSERT_EQ(std::vector<graph::VertexId>(got.begin(), got.end()),
              std::vector<graph::VertexId>(want.begin(), want.end()))
        << "right " << expected.right_names().name(r);
  }
}

void expect_same_ingest(const std::vector<dns::LogEntry>& entries,
                        std::int64_t bucket_seconds = 60) {
  GraphBuilderSink sink{bucket_seconds};
  StringIngestOracle oracle{bucket_seconds};
  for (const auto& e : entries) {
    sink.on_dns(e);
    oracle.on_dns(e);
  }
  expect_same_graph(std::move(oracle.hdbg), sink.take_hdbg(), "hdbg");
  expect_same_graph(std::move(oracle.dibg), sink.take_dibg(), "dibg");
  expect_same_graph(std::move(oracle.dtbg), sink.take_dtbg(), "dtbg");
}

dns::LogEntry entry(std::int64_t ts, std::string host, std::string qname,
                    std::vector<dns::Ipv4> ips = {}) {
  dns::LogEntry e;
  e.timestamp = ts;
  e.host = std::move(host);
  e.qname = std::move(qname);
  e.addresses = std::move(ips);
  return e;
}

TEST(IngestDifferential, AdversarialTraceMatchesStringIngest) {
  trace::TraceConfig config;
  config.seed = 17;
  config.hosts = 50;
  config.days = 3;
  config.benign_sites = 250;
  config.malware_families = 6;
  config.min_victims = 4;
  config.max_victims = 10;
  config.zero_day_families = 2;
  config.zero_day_activation_day = 1;
  config.evasion_families = 2;
  config.iot_host_fraction = 0.2;
  trace::CollectingSink trace;
  trace::generate_trace(config, trace);
  ASSERT_GT(trace.dns().size(), 10'000u);
  expect_same_ingest(trace.dns());
}

TEST(IngestDifferential, EdgeCaseEntriesMatchStringIngest) {
  const dns::Ipv4 a{10, 0, 0, 1};
  const dns::Ipv4 b{10, 0, 0, 2};
  const dns::Ipv4 c{192, 168, 7, 9};
  const std::string upper_long = std::string(300, 'A') + ".EXAMPLE.COM";
  const std::string lower_long = std::string(300, 'a') + ".example.com";
  // 253 characters after the trailing dot is stripped: fits the buffer.
  const std::string upper_fits = std::string(249, 'B') + ".COM.";
  const std::vector<dns::LogEntry> entries = {
      entry(120, "h1", "WWW.Example.COM", {a}),
      entry(60, "h2", "www.example.com.", {a, b}),
      entry(0, "h1", "mail.EXAMPLE.com.", {}),
      entry(0, "h3", "example.com", {c, a, a}),
      entry(-1, "h3", "co.uk", {b}),
      entry(-61, "h2", "CO.UK.", {}),
      entry(-60, "h4", "news.bbc.co.uk", {c}),
      entry(59, "h4", "bad..name", {a}),
      entry(60, "h5", "under_score!.com", {}),
      entry(3600, "h5", "", {b}),
      entry(3601, "h5", ".", {}),
      entry(0, "h6", upper_long, {c}),
      entry(0, "h6", lower_long, {}),
      entry(7200, "h6", upper_fits, {a}),
      entry(7199, "h7", "\xC3\x84X.COM", {}),
      entry(120, "h7", "foo.bar.ck", {b}),
      entry(180, "h7", "WWW.CK", {c}),
      entry(-86400, "h1", "Example.Com", {}),
      entry(120, "h1", "-lead.example.com", {a}),
      entry(120, "", "tld", {}),
  };
  expect_same_ingest(entries);
  expect_same_ingest(entries, 7);
  expect_same_ingest({});
}

}  // namespace
}  // namespace dnsembed::core
