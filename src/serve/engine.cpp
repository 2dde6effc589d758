#include "serve/engine.hpp"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "dns/name.hpp"
#include "dns/public_suffix.hpp"
#include "ml/dataset.hpp"
#include "obs/metrics.hpp"
#include "util/fsio.hpp"
#include "util/stopwatch.hpp"

namespace dnsembed::serve {

std::unique_ptr<ServeSnapshot> ServeEngine::build_snapshot(std::uint64_t version) const {
  auto snap = std::make_unique<ServeSnapshot>();
  snap->version = version;
  snap->embedding = embed::EmbeddingMatrix::load_arena_file(embeddings_path_);
  snap->model = ml::SvmModel::load_file(model_path_);
  if (snap->embedding.dimension() != snap->model.dimension()) {
    throw std::invalid_argument{"serve: embedding dimension " +
                                std::to_string(snap->embedding.dimension()) +
                                " does not match model dimension " +
                                std::to_string(snap->model.dimension())};
  }

  // Precompute index scores through the exact batch path (decision_values
  // over float-to-double casted rows) so an index hit is byte-identical to
  // the batch pipeline's score for the same domain.
  const std::size_t total = snap->embedding.size();
  const std::size_t indexed =
      options_.index_limit == 0 ? total : std::min(options_.index_limit, total);
  ml::Matrix x{indexed, snap->embedding.dimension()};
  for (std::size_t i = 0; i < indexed; ++i) {
    const auto src = snap->embedding.row(i);
    const auto dst = x.row(i);
    for (std::size_t j = 0; j < src.size(); ++j) dst[j] = static_cast<double>(src[j]);
  }
  // decision_values parallelism comes from the scoring-threads knob;
  // results are identical at every thread count.
  snap->model.set_scoring_threads(options_.threads);
  const std::vector<double> scores = snap->model.decision_values(x);
  const std::vector<std::string> names{snap->embedding.names().begin(),
                                       snap->embedding.names().begin() +
                                           static_cast<std::ptrdiff_t>(indexed)};
  snap->index = ScoreIndex::build(names, scores, options_.hash_seed);
  snap->built_at = std::chrono::steady_clock::now();
  return snap;
}

ServeEngine::ServeEngine(std::string embeddings_path, std::string model_path,
                         ServeOptions options)
    : embeddings_path_{std::move(embeddings_path)},
      model_path_{std::move(model_path)},
      options_{options},
      latency_buckets_(obs::Registry::fine_latency_seconds_bounds().size() + 1) {
  if (options_.max_batch == 0) {
    throw std::invalid_argument{"serve: max_batch must be at least 1"};
  }
  snapshot_.publish(build_snapshot(next_version_.fetch_add(1)));
  scorer_ = std::thread{[this] { scorer_loop(); }};
}

ServeEngine::~ServeEngine() {
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    stopping_ = true;
  }
  queue_cv_.notify_all();
  done_cv_.notify_all();
  if (scorer_.joinable()) scorer_.join();
}

void ServeEngine::reload() {
  auto snap = build_snapshot(next_version_.fetch_add(1));
  static obs::Gauge& entries_gauge = obs::metrics().gauge("serve.index_entries");
  static obs::Gauge& version_gauge = obs::metrics().gauge("serve.snapshot_version");
  static obs::Counter& reload_counter = obs::metrics().counter("serve.reloads");
  entries_gauge.set(static_cast<std::int64_t>(snap->index.size()));
  version_gauge.set(static_cast<std::int64_t>(snap->version));
  reload_counter.add(1);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  snapshot_.publish(std::move(snap));
}

LookupResult ServeEngine::lookup(std::string_view domain) {
  static obs::Counter& lookup_counter = obs::metrics().counter("serve.lookups");
  static obs::Counter& hit_counter = obs::metrics().counter("serve.index_hits");
  static obs::Counter& unknown_counter = obs::metrics().counter("serve.unknown");
  static obs::Histogram& latency =
      obs::metrics().fine_latency_histogram("serve.lookup_seconds");
  const util::Stopwatch watch;

  lookup_counter.add(1);
  lookups_.fetch_add(1, std::memory_order_relaxed);

  // Zero-allocation normalization: lower-case into a stack buffer when
  // needed, then reduce to the e2LD view (falling back to the whole name
  // when the name has no registrable part — e2ld_or_self semantics).
  char buf[dns::kMaxNameLength];
  const std::string_view norm = dns::normalize_name_view(domain, buf);
  std::string_view key = dns::PublicSuffixList::builtin().e2ld_view(norm);
  if (key.empty()) key = norm;

  LookupResult result;
  bool miss_with_row = false;
  {
    const auto snap = snapshot_.acquire();
    double score = 0.0;
    if (snap->index.find(key, &score)) {
      hit_counter.add(1);
      index_hits_.fetch_add(1, std::memory_order_relaxed);
      result = {score, score >= 0.0, ScoreSource::kIndex};
    } else if (snap->embedding.index_of(key).has_value()) {
      miss_with_row = true;
    }
  }
  if (miss_with_row) {
    // The guard is released before blocking: a waiter must never pin a
    // snapshot across a reload, and the scorer re-resolves the name under
    // its own (possibly newer) snapshot.
    result = enqueue_and_wait(key);
  } else if (result.source == ScoreSource::kUnknown) {
    unknown_counter.add(1);
    unknown_.fetch_add(1, std::memory_order_relaxed);
  }
  const double seconds = watch.seconds();
  latency.observe(seconds);
  latency_buckets_[obs::le_bucket(obs::Registry::fine_latency_seconds_bounds(), seconds)]
      .fetch_add(1, std::memory_order_relaxed);
  return result;
}

LookupResult ServeEngine::enqueue_and_wait(std::string_view name) {
  Pending request;
  request.name = name;
  {
    std::unique_lock<std::mutex> lock{queue_mutex_};
    // Bounded queue: back-pressure callers instead of growing without limit.
    done_cv_.wait(lock, [&] { return queue_.size() < options_.max_batch * 8 || stopping_; });
    if (stopping_) return {};
    queue_.push_back(&request);
    queue_cv_.notify_one();
    done_cv_.wait(lock, [&] { return request.done; });
  }
  static obs::Counter& batched_counter = obs::metrics().counter("serve.batch_scored");
  static obs::Counter& unknown_counter = obs::metrics().counter("serve.unknown");
  if (!request.found) {
    // The row vanished between the miss and the batch (a reload shrank the
    // embedding): report unknown rather than a stale score.
    unknown_counter.add(1);
    unknown_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  batched_counter.add(1);
  batch_scored_.fetch_add(1, std::memory_order_relaxed);
  return {request.score, request.score >= 0.0, ScoreSource::kBatched};
}

void ServeEngine::scorer_loop() {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    std::deque<Pending*> batch;
    {
      std::unique_lock<std::mutex> lock{queue_mutex_};
      queue_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) return;
      // Deadline from the FIRST queued request: collect arrivals until the
      // batch fills or the deadline passes, whichever is earlier.
      const auto deadline = Clock::now() + std::chrono::microseconds{options_.batch_deadline_us};
      queue_cv_.wait_until(lock, deadline, [&] {
        return queue_.size() >= options_.max_batch || stopping_;
      });
      const std::size_t take = std::min(queue_.size(), options_.max_batch);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    score_batch(batch);
    done_cv_.notify_all();
  }
}

void ServeEngine::score_batch(std::deque<Pending*>& batch) {
  static obs::Histogram& batch_size_hist =
      obs::metrics().histogram("serve.batch_size", obs::Registry::size_bounds());
  batch_size_hist.observe(static_cast<double>(batch.size()));

  // Resolve rows under one snapshot guard; names queued before a reload are
  // scored against the snapshot current at scoring time.
  const auto snap = snapshot_.acquire();
  std::vector<std::vector<double>> rows;
  std::vector<std::span<const double>> row_views;
  std::vector<Pending*> scored;
  rows.reserve(batch.size());
  scored.reserve(batch.size());
  for (Pending* request : batch) {
    const auto row = snap->embedding.vector_for(request->name);
    if (!row.has_value()) continue;
    rows.emplace_back(row->begin(), row->end());
    scored.push_back(request);
  }
  row_views.reserve(rows.size());
  for (const auto& r : rows) row_views.emplace_back(r.data(), r.size());
  const std::vector<double> scores = snap->model.score_rows(row_views);

  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    for (std::size_t i = 0; i < scored.size(); ++i) {
      scored[i]->score = scores[i];
      scored[i]->found = true;
    }
    for (Pending* request : batch) request->done = true;
  }
}

ServeEngine::Stats ServeEngine::stats() const {
  Stats out;
  out.lookups = lookups_.load(std::memory_order_relaxed);
  out.index_hits = index_hits_.load(std::memory_order_relaxed);
  out.batch_scored = batch_scored_.load(std::memory_order_relaxed);
  out.unknown = unknown_.load(std::memory_order_relaxed);
  out.reloads = reloads_.load(std::memory_order_relaxed);
  const auto snap = snapshot_.acquire();
  out.snapshot_version = snap->version;
  out.index_entries = snap->index.size();
  out.index_bytes = snap->index.memory_bytes();
  out.embedding_rows = snap->embedding.size();
  out.snapshot_age_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - snap->built_at).count();
  std::vector<std::uint64_t> counts;
  counts.reserve(latency_buckets_.size());
  for (const auto& c : latency_buckets_) counts.push_back(c.load(std::memory_order_relaxed));
  const auto bounds = obs::Registry::fine_latency_seconds_bounds();
  out.lookup_p50_us = obs::quantile_bound(bounds, counts, 0.50) * 1e6;
  out.lookup_p99_us = obs::quantile_bound(bounds, counts, 0.99) * 1e6;
  out.lookup_p999_us = obs::quantile_bound(bounds, counts, 0.999) * 1e6;
  return out;
}

}  // namespace dnsembed::serve
