// ServeEngine: the long-running scoring core behind `dnsembed serve`.
//
// A snapshot bundles the three immutable artifacts a verdict needs — the
// embedding matrix, the trained SVM, and the precomputed domain→score index
// — under one version number. Lookups pin the current snapshot through
// serve/snapshot.hpp, normalize the query to its e2LD with the
// zero-allocation dns view path, and answer from the index without locks.
// Domains absent from the index but present in the embedding fall through
// to a bounded micro-batch queue: a scorer thread collects requests until
// the batch fills or a deadline expires, then scores them in one SV-major
// pass (SvmModel::score_rows), amortizing the support-vector streaming over
// the batch while keeping every score bit-identical to the batch pipeline.
//
// reload() rebuilds a snapshot from the artifact paths off the reader
// threads and publishes it atomically; in-flight lookups finish on the old
// snapshot, new lookups see the new one, and the old snapshot is retired
// once the last guard releases.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "embed/embedding.hpp"
#include "ml/svm.hpp"
#include "serve/score_index.hpp"
#include "serve/snapshot.hpp"

namespace dnsembed::serve {

struct ServeOptions {
  /// Index the scores of the first index_limit embedding rows (0 = all).
  /// Rows past the limit stay reachable through the batched fallback.
  std::size_t index_limit = 0;
  /// Micro-batch cap: the scorer never waits once this many requests queue.
  std::size_t max_batch = 32;
  /// Batching deadline: a queued request is scored at most this long after
  /// it arrives even when the batch has not filled.
  std::uint64_t batch_deadline_us = 200;
  /// Threads for the reload-time score precompute (0 = hardware).
  std::size_t threads = 1;
  /// Seed of the index hash family; any fixed value works.
  std::uint64_t hash_seed = 0x646e73656d626564ULL;  // "dnsembed"
};

enum class ScoreSource {
  kIndex,    // wait-free index hit
  kBatched,  // scored through the micro-batch fallback
  kUnknown,  // not in the embedding: no verdict possible
};

struct LookupResult {
  double score = 0.0;
  bool malicious = false;
  ScoreSource source = ScoreSource::kUnknown;
};

/// One immutable artifact generation.
struct ServeSnapshot {
  embed::EmbeddingMatrix embedding;
  ml::SvmModel model;
  ScoreIndex index;
  std::uint64_t version = 0;
  /// When the snapshot finished building (artifacts loaded, index filled).
  std::chrono::steady_clock::time_point built_at;
};

class ServeEngine {
 public:
  /// Loads the artifacts, precomputes the index, publishes snapshot v1, and
  /// starts the batch scorer thread. Throws util::CorruptArtifact /
  /// fsio::IoError on artifact problems and std::invalid_argument when the
  /// embedding dimension does not match the model.
  ServeEngine(std::string embeddings_path, std::string model_path, ServeOptions options);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Score one domain. Index hits are lock-free and allocation-free;
  /// fallback requests block the caller until the micro-batch resolves
  /// (bounded by the deadline plus scoring time).
  LookupResult lookup(std::string_view domain);

  /// Re-read the artifact paths, rebuild the index, and publish the new
  /// snapshot. Safe to call concurrently with lookups; concurrent reloads
  /// serialize. Throws like the constructor on artifact problems, leaving
  /// the current snapshot in place.
  void reload();

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t index_hits = 0;
    std::uint64_t batch_scored = 0;
    std::uint64_t unknown = 0;
    std::uint64_t reloads = 0;
    std::uint64_t snapshot_version = 0;
    std::uint64_t index_entries = 0;
    std::uint64_t index_bytes = 0;
    std::uint64_t embedding_rows = 0;
    /// This engine's lookup latency percentiles over its lifetime, bucketed
    /// like the `serve.lookup_seconds` histogram: each is its bucket's upper
    /// bound in µs, and all are 0 before the first lookup.
    double lookup_p50_us = 0.0;
    double lookup_p99_us = 0.0;
    double lookup_p999_us = 0.0;
    /// Seconds since the published snapshot finished building.
    double snapshot_age_s = 0.0;
  };
  /// Always-on internal counters, latency percentiles and snapshot age
  /// (all independent of the obs enabled flag), for the status writer and
  /// tests.
  Stats stats() const;

  const ServeOptions& options() const noexcept { return options_; }

 private:
  struct Pending {
    std::string_view name;  // aliases the waiting caller's stack buffer
    double score = 0.0;
    bool found = false;
    bool done = false;
  };

  std::unique_ptr<ServeSnapshot> build_snapshot(std::uint64_t version) const;
  LookupResult enqueue_and_wait(std::string_view name);
  void scorer_loop();
  void score_batch(std::deque<Pending*>& batch);

  std::string embeddings_path_;
  std::string model_path_;
  ServeOptions options_;

  SnapshotHolder<ServeSnapshot> snapshot_;
  std::atomic<std::uint64_t> next_version_{1};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;    // scorer wakes on arrivals / shutdown
  std::condition_variable done_cv_;     // waiters wake on completed batches
  std::deque<Pending*> queue_;
  bool stopping_ = false;
  std::thread scorer_;

  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> index_hits_{0};
  std::atomic<std::uint64_t> batch_scored_{0};
  std::atomic<std::uint64_t> unknown_{0};
  std::atomic<std::uint64_t> reloads_{0};
  /// Per-bucket lookup counts over obs::Registry::fine_latency_seconds_bounds().
  std::vector<std::atomic<std::uint64_t>> latency_buckets_;
};

}  // namespace dnsembed::serve
