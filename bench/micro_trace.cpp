// Microbenchmarks: trace generation, capture throughput and DNS ingest into
// the three behavior graphs.
#include <benchmark/benchmark.h>

#include <sstream>

#include "core/behavior.hpp"
#include "dns/capture_io.hpp"
#include "trace/generator.hpp"
#include "trace/pcap_sink.hpp"

namespace {

using namespace dnsembed;

trace::TraceConfig micro_config(std::size_t hosts) {
  trace::TraceConfig config;
  config.seed = 5;
  config.hosts = hosts;
  config.days = 1;
  config.benign_sites = 300;
  config.third_party_pool = 60;
  config.interests_per_host = 40;
  config.polling_apps = 6;
  config.malware_families = 6;
  config.min_victims = 3;
  config.max_victims = 10;
  return config;
}

class CountSink final : public trace::TraceSink {
 public:
  void on_dns(const dns::LogEntry&) override { ++events; }
  std::size_t events = 0;
};

void BM_TraceGeneration(benchmark::State& state) {
  const auto config = micro_config(static_cast<std::size_t>(state.range(0)));
  std::size_t events = 0;
  for (auto _ : state) {
    CountSink sink;
    benchmark::DoNotOptimize(trace::generate_trace(config, sink));
    events = sink.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_TraceGeneration)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_PcapStreaming(benchmark::State& state) {
  const auto config = micro_config(50);
  for (auto _ : state) {
    std::ostringstream capture;
    trace::PcapStreamSink sink{capture};
    benchmark::DoNotOptimize(trace::generate_trace(config, sink));
  }
}
BENCHMARK(BM_PcapStreaming)->Unit(benchmark::kMillisecond);

void BM_PcapImport(benchmark::State& state) {
  const auto config = micro_config(50);
  std::ostringstream capture;
  trace::PcapStreamSink sink{capture};
  trace::generate_trace(config, sink);
  const std::string bytes = capture.str();
  for (auto _ : state) {
    std::istringstream in{bytes};
    benchmark::DoNotOptimize(dns::import_pcap(in));
  }
  state.counters["MB"] = static_cast<double>(bytes.size()) / 1e6;
}
BENCHMARK(BM_PcapImport)->Unit(benchmark::kMillisecond);

// Ingest alone: a pre-generated trace replayed into GraphBuilderSink, the
// three take_*() calls (which finalize the adjacency) included.
void BM_GraphBuilderIngest(benchmark::State& state) {
  trace::CollectingSink trace;
  trace::generate_trace(micro_config(static_cast<std::size_t>(state.range(0))), trace);
  const auto& entries = trace.dns();
  for (auto _ : state) {
    core::GraphBuilderSink graphs;
    for (const auto& entry : entries) graphs.on_dns(entry);
    benchmark::DoNotOptimize(graphs.take_hdbg());
    benchmark::DoNotOptimize(graphs.take_dibg());
    benchmark::DoNotOptimize(graphs.take_dtbg());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
  state.counters["events"] = static_cast<double>(entries.size());
}
BENCHMARK(BM_GraphBuilderIngest)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
