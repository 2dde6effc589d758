// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, built so hot loops (projection pair counting, LINE SGD
// sampling, SVM kernel fill) can be instrumented without contending on a
// shared cache line.
//
// Design:
//  - One global enabled flag. Every mutation first does a relaxed load of
//    that flag and returns when no metrics sink is configured, so an
//    uninstrumented run pays one predicted branch per event (the overhead
//    budget is <= 3% on the projection hot loop; bench/micro_obs enforces
//    it).
//  - Per-thread sharded slots: each counter/histogram owns kShards
//    cache-line-aligned slots; a thread picks its slot from a stable
//    per-thread index, so an enabled hot loop pays at most one relaxed
//    atomic add per event and threads never bounce a line between cores.
//  - Handles are registered once by name ("stage.subsystem.name", see
//    DESIGN.md §7) and live for the process lifetime, so call sites cache
//    `static obs::Counter& c = obs::metrics().counter("...")`.
//  - snapshot() merges the shards into a deterministic view (metrics sorted
//    by name, records in append order) for the JSON / Prometheus exporters.
//
// Records are small ordered key/value snapshots (e.g. one per streaming
// detector day) that belong in the JSON export but have no Prometheus
// equivalent; the text exporter skips them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dnsembed::obs {

inline std::atomic<bool> g_metrics_enabled{false};

inline bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept;

namespace detail {

inline constexpr std::size_t kShards = 16;

/// Stable per-thread slot index in [0, kShards): threads are numbered in
/// first-use order, so a pool of T workers spreads across min(T, kShards)
/// distinct cache lines.
inline std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

struct alignas(64) Slot {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    slots_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Ungated add for cross-process telemetry merge: folds a worker's counter
  /// total into this process's counter regardless of the enabled flag, so
  /// merge correctness never depends on flag ordering.
  void add_raw(std::uint64_t n) noexcept {
    slots_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum across shards (exact once mutating threads have been joined).
  std::uint64_t total() const noexcept;
  const std::string& name() const noexcept { return name_; }
  void reset() noexcept;

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_{std::move(name)} {}

  std::string name_;
  std::array<detail::Slot, detail::kShards> slots_;
};

/// Point-in-time value (set wins over add; not sharded — gauges are not
/// hot-loop metrics). A gauge remembers whether it was written since the
/// last reset, so a forked worker's telemetry sidecar carries exactly the
/// gauges that worker set, zeros included.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!metrics_enabled()) return;
    set_raw(v);
  }
  void add(std::int64_t n) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
    written_.store(true, std::memory_order_relaxed);
  }

  /// Ungated set for cross-process telemetry merge (cf. Counter::add_raw).
  void set_raw(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    written_.store(true, std::memory_order_relaxed);
  }

  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  bool written() const noexcept { return written_.load(std::memory_order_relaxed); }
  const std::string& name() const noexcept { return name_; }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    written_.store(false, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_{std::move(name)} {}

  std::string name_;
  std::atomic<std::int64_t> value_{0};
  std::atomic<bool> written_{false};
};

/// Index of the `le` bucket that counts `value`: the first bound >= value,
/// or bounds.size() (the overflow bucket) when value exceeds them all.
inline std::size_t le_bucket(std::span<const double> bounds, double value) noexcept {
  std::size_t b = 0;
  while (b < bounds.size() && value > bounds[b]) ++b;
  return b;
}

/// Upper bound of the `le` bucket holding the nearest-rank q-quantile (q in
/// (0, 1]) of per-bucket counts `buckets` (bounds.size() + 1 of them, the
/// last the overflow bucket); 0 when every count is 0. An overflow-bucket
/// quantile reports the largest bound, a floor on the true value.
double quantile_bound(std::span<const double> bounds, std::span<const std::uint64_t> buckets,
                      double q) noexcept;

/// Fixed-bucket histogram with Prometheus `le` semantics: bucket i counts
/// observations <= bounds[i]; one extra overflow bucket counts the rest.
/// The sum is kept in integer micro-units so the whole update path is
/// relaxed fetch_adds (two per observation: bucket + sum).
class Histogram {
 public:
  void observe(double value) noexcept {
    if (!metrics_enabled()) return;
    auto& shard = shards_[detail::shard_index()];
    shard.buckets[le_bucket(bounds_, value)].value.fetch_add(1, std::memory_order_relaxed);
    const double micros = value * 1e6;
    shard.sum_micros.fetch_add(
        micros <= 0.0 ? 0 : static_cast<std::uint64_t>(micros + 0.5),
        std::memory_order_relaxed);
  }

  const std::string& name() const noexcept { return name_; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts merged across shards; the final
  /// element is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  /// The exact integer micro-unit sum, for lossless cross-process merge.
  std::uint64_t sum_micros_total() const noexcept;
  /// Fold another process's raw bucket counts and micro-unit sum into this
  /// histogram (ungated, like Counter::add_raw). Returns false — and merges
  /// nothing — when the bucket layout does not match this histogram's.
  bool merge_counts(std::span<const std::uint64_t> buckets,
                    std::uint64_t sum_micros) noexcept;
  void reset() noexcept;

 private:
  friend class Registry;
  Histogram(std::string name, std::span<const double> bounds);

  struct Shard {
    std::vector<detail::Slot> buckets;  // bounds.size() + 1
    alignas(64) std::atomic<std::uint64_t> sum_micros{0};
  };

  std::string name_;
  std::vector<double> bounds_;  // strictly increasing
  std::array<Shard, detail::kShards> shards_;
};

/// Ordered key/value snapshot appended to the registry (per-day streaming
/// telemetry and similar event-shaped data).
struct MetricRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1, non-cumulative
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Exact micro-unit sum backing `sum`; telemetry sidecars serialize this
  /// so a merged histogram sum is bit-identical to the single-process one.
  std::uint64_t sum_micros = 0;
};

/// Deterministic merged view for the exporters: metrics sorted by name,
/// records in append order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<MetricRecord> records;
};

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create by name. References stay valid for the process
  /// lifetime. A histogram's bounds are fixed by its first registration.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);
  /// Histogram with the default latency bounds (seconds, 1ms..16min).
  Histogram& latency_histogram(std::string_view name);
  /// Histogram with the fine latency bounds (seconds, 1µs..~4s) — for
  /// request-scale paths (the serve daemon's per-lookup latency) where the
  /// stage-scale buckets above would collapse everything into one bucket.
  Histogram& fine_latency_histogram(std::string_view name);

  /// Default bucket bounds: powers of 4 from 1ms (latency, seconds),
  /// powers of 4 from 1µs (fine latency, seconds), and powers of 4 from 1
  /// (sizes/counts).
  static std::span<const double> latency_seconds_bounds() noexcept;
  static std::span<const double> fine_latency_seconds_bounds() noexcept;
  static std::span<const double> size_bounds() noexcept;

  void append_record(std::string_view name,
                     std::vector<std::pair<std::string, double>> fields);

  MetricsSnapshot snapshot() const;

  /// The registered gauges written since the last reset_values(), sorted by
  /// name (republished gauges such as simd.level are not among them).
  std::vector<std::pair<std::string, std::int64_t>> written_gauges() const;

  /// Zero every value and drop records; registered handles stay valid.
  /// For tests and repeated in-process runs.
  void reset_values();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<std::string, Counter*> counter_index_;
  std::unordered_map<std::string, Gauge*> gauge_index_;
  std::unordered_map<std::string, Histogram*> histogram_index_;
  std::vector<MetricRecord> records_;
};

/// Shorthand for Registry::instance().
inline Registry& metrics() { return Registry::instance(); }

}  // namespace dnsembed::obs
