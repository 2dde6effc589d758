// Shared configuration and printing helpers for the experiment harnesses,
// and the paired A/B timer that the microbench timing gates use.
//
// Every figure/table binary runs standalone with a "bench" scale chosen so
// the full suite finishes in minutes. Set DNSEMBED_SCALE=full to run at a
// scale closer to the paper's campus (more hosts/days/families; slower).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace dnsembed::bench {

inline bool full_scale() {
  const char* env = std::getenv("DNSEMBED_SCALE");
  return env != nullptr && std::string{env} == "full";
}

/// The default experiment configuration shared by the figure benches.
inline core::PipelineConfig bench_pipeline_config() {
  core::PipelineConfig config;
  config.seed = 1;
  config.trace.seed = 42;
  if (full_scale()) {
    config.trace.hosts = 1200;
    config.trace.days = 14;
    config.trace.benign_sites = 8000;
    config.trace.third_party_pool = 600;
    config.trace.interests_per_host = 220;
    config.trace.malware_families = 30;
    config.embedding.line.total_samples = 20'000'000;
  } else {
    config.trace.hosts = 300;
    config.trace.days = 5;
    config.trace.benign_sites = 1800;
    config.trace.third_party_pool = 250;
    config.trace.interests_per_host = 120;
    config.trace.malware_families = 10;
    config.embedding.line.total_samples = 4'000'000;
  }
  config.embedding_dimension = 32;
  config.embedding.line.threads = 4;
  config.kfold = 10;
  // Similarity edges below 0.1 are incidental co-occurrence; dropping them
  // sparsifies the graphs ~5x and concentrates the LINE sampling budget.
  config.behavior.query_projection.min_similarity = 0.1;
  config.behavior.ip_projection.min_similarity = 0.1;
  config.behavior.temporal_projection.min_similarity = 0.1;
  // SVM: the paper's C = 0.09 / gamma = 0.06 were tuned for its feature
  // scale and underfit our 96-dim L2-normalized embeddings (AUC drops ~0.1
  // across every channel; see bench/abl_kernel for the sweep including the
  // paper's values). We use C = 1, gamma = 0.5.
  config.svm.kernel = ml::SvmKernel::kRbf;
  config.svm.c = 1.0;
  config.svm.gamma = 0.5;
  // Fine-grained clusters: families are ~10-60 domains each.
  config.xmeans.k_min = 8;
  config.xmeans.k_max = full_scale() ? 192 : 96;
  return config;
}

// ------------------------------------------------------- paired A/B timer
//
// Timing gates compare two variants on a shared box whose speed drifts by
// tens of percent over seconds. Running all of A and then all of B lets
// that drift land in the ratio; instead every repetition times A and B back
// to back (alternating which goes first), and the gate reads the median of
// the per-pair ratios B/A together with their interquartile spread.

enum class AbClock {
  kWall,       // steady-clock wall time: for speedups (threads, rungs)
  kThreadCpu,  // CPU time of the calling thread: for overhead gates
};

struct AbResult {
  int pairs = 0;
  double a_ms = 0.0;  // median time of A
  double b_ms = 0.0;  // median time of B
  double median = 0.0;  // median of the per-pair ratios B/A
  double q1 = 0.0;
  double q3 = 0.0;

  double spread() const noexcept { return q3 - q1; }
};

inline double ab_now_ms(AbClock clock) {
  timespec ts{};
  clock_gettime(clock == AbClock::kWall ? CLOCK_MONOTONIC : CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Linear-interpolated quantile q in [0, 1] of an ascending-sorted vector.
inline double ab_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

/// Time `pairs` interleaved A/B repetitions after one untimed warm-up of
/// each.
inline AbResult paired_ab(const std::function<void()>& a, const std::function<void()>& b,
                          int pairs, AbClock clock = AbClock::kWall) {
  a();
  b();
  std::vector<double> a_ms, b_ms, ratios;
  const auto time = [clock](const std::function<void()>& fn) {
    const double start = ab_now_ms(clock);
    fn();
    return ab_now_ms(clock) - start;
  };
  for (int p = 0; p < pairs; ++p) {
    double ta = 0.0;
    double tb = 0.0;
    if (p % 2 == 0) {
      ta = time(a);
      tb = time(b);
    } else {
      tb = time(b);
      ta = time(a);
    }
    a_ms.push_back(ta);
    b_ms.push_back(tb);
    ratios.push_back(tb / ta);
  }
  std::sort(a_ms.begin(), a_ms.end());
  std::sort(b_ms.begin(), b_ms.end());
  std::sort(ratios.begin(), ratios.end());
  AbResult out;
  out.pairs = pairs;
  out.a_ms = ab_quantile(a_ms, 0.5);
  out.b_ms = ab_quantile(b_ms, 0.5);
  out.median = ab_quantile(ratios, 0.5);
  out.q1 = ab_quantile(ratios, 0.25);
  out.q3 = ab_quantile(ratios, 0.75);
  return out;
}

enum class AbVerdict { kPass, kFail, kUnresolved };

inline const char* ab_verdict_name(AbVerdict verdict) {
  switch (verdict) {
    case AbVerdict::kPass: return "pass";
    case AbVerdict::kFail: return "FAIL";
    case AbVerdict::kUnresolved: return "unresolved";
  }
  return "?";
}

/// Gate "B/A <= bound". The verdict stands only when the interquartile
/// spread fits inside the margin between the median and the bound;
/// otherwise it is unresolved (more pairs or a quieter box are needed),
/// and an unresolved gate does not pass.
inline AbVerdict ab_gate_at_most(const AbResult& r, double bound) {
  const double margin = r.median > bound ? r.median - bound : bound - r.median;
  if (r.spread() > margin) return AbVerdict::kUnresolved;
  return r.median <= bound ? AbVerdict::kPass : AbVerdict::kFail;
}

/// One line: "<what>: B/A median 0.560x, IQR [0.540, 0.590] over 9 pairs
/// (gate <= 0.700x): pass".
inline void print_ab(const char* what, const AbResult& r, double bound, AbVerdict verdict) {
  std::printf("%s: A %.1f ms, B %.1f ms; B/A median %.3fx, IQR [%.3f, %.3f] over %d pairs "
              "(gate <= %.3fx): %s\n",
              what, r.a_ms, r.b_ms, r.median, r.q1, r.q3, r.pairs, bound,
              ab_verdict_name(verdict));
}

inline void print_header(const char* experiment, const char* paper_result) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper reports: %s\n", paper_result);
  std::printf("scale: %s (set DNSEMBED_SCALE=full for paper-like scale)\n",
              full_scale() ? "full" : "bench");
  std::printf("==============================================================\n");
}

inline void print_roc(const std::vector<ml::RocPoint>& roc, std::size_t max_points = 20) {
  std::printf("%10s %10s\n", "FPR", "TPR");
  const std::size_t stride = roc.size() > max_points ? roc.size() / max_points : 1;
  for (std::size_t i = 0; i < roc.size(); i += stride) {
    std::printf("%10.4f %10.4f\n", roc[i].fpr, roc[i].tpr);
  }
  if (!roc.empty()) std::printf("%10.4f %10.4f\n", roc.back().fpr, roc.back().tpr);
}

}  // namespace dnsembed::bench
