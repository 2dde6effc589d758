#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/simd.hpp"

namespace dnsembed::obs {

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t Counter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& slot : slots_) sum += slot.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (auto& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
}

double quantile_bound(std::span<const double> bounds, std::span<const std::uint64_t> buckets,
                      double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return bounds[b];
  }
  return bounds.back();
}

Histogram::Histogram(std::string name, std::span<const double> bounds)
    : name_{std::move(name)}, bounds_{bounds.begin(), bounds.end()} {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (auto& shard : shards_) {
    shard.buckets = std::vector<detail::Slot>(bounds_.size() + 1);
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += shard.buckets[b].value.load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& bucket : shard.buckets) {
      total += bucket.value.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::sum() const noexcept {
  return static_cast<double>(sum_micros_total()) / 1e6;
}

std::uint64_t Histogram::sum_micros_total() const noexcept {
  std::uint64_t micros = 0;
  for (const auto& shard : shards_) {
    micros += shard.sum_micros.load(std::memory_order_relaxed);
  }
  return micros;
}

bool Histogram::merge_counts(std::span<const std::uint64_t> buckets,
                             std::uint64_t sum_micros) noexcept {
  if (buckets.size() != bounds_.size() + 1) return false;
  auto& shard = shards_[0];
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    shard.buckets[b].value.fetch_add(buckets[b], std::memory_order_relaxed);
  }
  shard.sum_micros.fetch_add(sum_micros, std::memory_order_relaxed);
  return true;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) bucket.value.store(0, std::memory_order_relaxed);
    shard.sum_micros.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = counter_index_.find(std::string{name});
  if (it != counter_index_.end()) return *it->second;
  counters_.push_back(std::unique_ptr<Counter>{new Counter{std::string{name}}});
  Counter& created = *counters_.back();
  counter_index_.emplace(created.name(), &created);
  return created;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = gauge_index_.find(std::string{name});
  if (it != gauge_index_.end()) return *it->second;
  gauges_.push_back(std::unique_ptr<Gauge>{new Gauge{std::string{name}}});
  Gauge& created = *gauges_.back();
  gauge_index_.emplace(created.name(), &created);
  return created;
}

Histogram& Registry::histogram(std::string_view name, std::span<const double> bounds) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = histogram_index_.find(std::string{name});
  if (it != histogram_index_.end()) return *it->second;
  histograms_.push_back(std::unique_ptr<Histogram>{new Histogram{std::string{name}, bounds}});
  Histogram& created = *histograms_.back();
  histogram_index_.emplace(created.name(), &created);
  return created;
}

Histogram& Registry::latency_histogram(std::string_view name) {
  return histogram(name, latency_seconds_bounds());
}

Histogram& Registry::fine_latency_histogram(std::string_view name) {
  return histogram(name, fine_latency_seconds_bounds());
}

std::span<const double> Registry::latency_seconds_bounds() noexcept {
  // Powers of 4 from 1ms to ~17min: wide enough for packet handling
  // through full-pipeline stages with 11 buckets.
  static const double bounds[] = {0.001, 0.004, 0.016, 0.064, 0.256, 1.024,
                                  4.096, 16.384, 65.536, 262.144, 1048.576};
  return bounds;
}

std::span<const double> Registry::fine_latency_seconds_bounds() noexcept {
  // Powers of 4 from 1µs to ~4s: a serve-path index hit lands in the first
  // few buckets and a batched-scorer fallback (deadline-bounded, sub-ms to
  // tens of ms) still resolves instead of collapsing into bucket zero of
  // the stage-scale bounds above.
  static const double bounds[] = {0.000001, 0.000004, 0.000016, 0.000064,
                                  0.000256, 0.001024, 0.004096, 0.016384,
                                  0.065536, 0.262144, 1.048576, 4.194304};
  return bounds;
}

std::span<const double> Registry::size_bounds() noexcept {
  static const double bounds[] = {1,    4,     16,    64,     256,   1024,
                                  4096, 16384, 65536, 262144, 1048576};
  return bounds;
}

void Registry::append_record(std::string_view name,
                             std::vector<std::pair<std::string, double>> fields) {
  if (!metrics_enabled()) return;
  const std::lock_guard<std::mutex> lock{mutex_};
  records_.push_back(MetricRecord{std::string{name}, std::move(fields)});
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size() + 4);
  for (const auto& c : counters_) snap.counters.emplace_back(c->name(), c->total());
  // The fsio and logging layers (src/util) cannot depend on obs, so they
  // keep their own always-on counters; republish them here so every metrics
  // export shows the I/O retry / atomic-commit / corruption / suppressed-log
  // picture. Folding (instead of blindly appending) matters once telemetry
  // sidecars are merged: the supervisor folds each worker's republished
  // totals into same-named registry counters, and a second appended entry
  // would produce duplicate keys in the JSON export.
  {
    const auto fold = [&snap](const char* name, std::uint64_t value) {
      for (auto& entry : snap.counters) {
        if (entry.first == name) {
          entry.second += value;
          return;
        }
      }
      snap.counters.emplace_back(name, value);
    };
    const auto io = util::fsio::stats();
    fold("io.retries", io.retries);
    fold("io.atomic_renames", io.atomic_renames);
    fold("io.faults_injected", io.faults_injected);
    fold("artifact.corrupt_detected", io.corrupt_detected);
    fold("log.suppressed", util::suppressed_log_count());
  }
  snap.gauges.reserve(gauges_.size() + 1);
  for (const auto& g : gauges_) snap.gauges.emplace_back(g->name(), g->value());
  // Same inversion as the fsio counters above: the SIMD dispatch layer lives
  // in src/util, so republish the resolved rung here instead of having util
  // push it.
  snap.gauges.emplace_back("simd.level",
                           static_cast<std::int64_t>(util::simd::active_level()));
  snap.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    HistogramSnapshot hs;
    hs.name = h->name();
    hs.bounds = h->bounds();
    hs.buckets = h->bucket_counts();
    hs.count = h->count();
    hs.sum_micros = h->sum_micros_total();
    hs.sum = static_cast<double>(hs.sum_micros) / 1e6;
    snap.histograms.push_back(std::move(hs));
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  snap.records = records_;
  return snap;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::written_gauges() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& g : gauges_) {
    if (g->written()) out.emplace_back(g->name(), g->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const auto& c : counters_) c->reset();
  for (const auto& g : gauges_) g->reset();
  for (const auto& h : histograms_) h->reset();
  records_.clear();
  util::fsio::reset_stats();
  util::reset_suppressed_log_count();
}

}  // namespace dnsembed::obs
