// Open-loop load against serve::ServeEngine. Request streams are generated
// from the seed before a phase starts; each client thread sends its share
// on a fixed schedule (request g of a phase is due at start + g / rate)
// regardless of how earlier requests fared, and every lookup is timed from
// its due time, so a stall also shows in the requests queued behind it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "embed/embedding.hpp"
#include "ml/svm.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// The artifacts a serving phase answers from. Rows [0, indexed) of the
/// embedding are in the engine's score index; the rest reach the batched
/// fallback; `unknown` names are absent from the embedding.
struct ServeUniverse {
  dnsembed::embed::EmbeddingMatrix embedding;
  dnsembed::ml::SvmModel model;
  std::size_t indexed = 0;
  std::vector<std::string> unknown;
  std::string embeddings_path;
  std::string model_path;
};

/// Write the embedding and the SVM to `dir` and fill the paths.
void save_universe(ServeUniverse& universe, const std::string& dir);

enum Kind : std::uint8_t { kIndexHit = 0, kBatched = 1, kUnknown = 2 };

struct Request {
  std::uint32_t row;  // embedding row, or unknown-name index for kUnknown
  Kind kind;
};

/// 85% Zipf-skewed index hits, 10% batched fallback rows (uniform over the
/// unindexed rows), 5% unknown names.
std::vector<Request> make_requests(const ServeUniverse& universe, std::size_t count,
                                   std::uint64_t seed);

/// Batch-path scores (SvmModel::decision_value) of every row the requests
/// touch, computed on `threads` threads; other rows stay NaN.
void expected_scores(const ServeUniverse& universe, const std::vector<Request>& requests,
                     std::size_t threads, std::vector<double>& expected);

struct PhaseResult {
  double rate = 0.0;       // nominal, requests/s over all clients
  double achieved = 0.0;   // completed / (last completion - first due)
  std::size_t attempted = 0;
  std::size_t failed = 0;  // wrong source or a score != decision_value
  std::vector<double> latency_us[3];  // per Kind, from due time, sorted
  std::vector<double> lag_us;         // send time - due time, sorted
  /// The phase cut into equal windows of due time: p50/p99 latency and
  /// median lag per window. Host preemption stalls a client for
  /// milliseconds now and then; it spoils a window or two, so medians over
  /// windows measure the program rather than the host.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_lag_p50_us;
  std::vector<double> during_reload_us;  // lookups overlapping a reload, sorted
  std::vector<double> reload_s;          // each reload() call
  std::string reload_error;              // what a failed reload() threw
};

struct PhaseOptions {
  double rate = 10'000.0;
  std::size_t clients = 2;
  /// > 0: a reload thread calls engine.reload() every this many seconds
  /// (measured from the end of the previous reload) while the phase runs.
  double reload_every_s = 0.0;
  std::size_t windows = 5;
};

/// Send `requests` (pregenerated) at options.rate across options.clients
/// threads and check each result against `expected`.
PhaseResult run_phase(dnsembed::serve::ServeEngine& engine, const ServeUniverse& universe,
                      const std::vector<Request>& requests, const std::vector<double>& expected,
                      const PhaseOptions& options);

}  // namespace perfbench
