// Shared pieces of the repo benchmark: clocks, resource usage, summary
// statistics, the metric table printed at exit, and the in-memory span
// recorder used by traced runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since an arbitrary origin.
double now_s();

/// CPU seconds (user + system) of this process plus its reaped children,
/// and the peak resident set of either, in MiB.
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
Usage usage_now();

/// Median of the values (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of an ascending-sorted vector.
double sorted_quantile(const std::vector<double>& sorted, double q);

/// Recursive size of a directory's regular files, in bytes.
std::uint64_t directory_bytes(const std::string& dir);

/// Named metrics with units, in insertion-independent (sorted) order.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` restricted to `names`, in
  /// that order; names without a value are skipped.
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// Shortest round-trip text of a double, as a JSON number.
std::string json_number(double value);
std::string json_string(const std::string& text);
/// Comma-separated JSON numbers (no brackets).
std::string json_list(const std::vector<double>& values);

/// In-memory span recorder. Disabled, every call is a branch and nothing
/// is stored, so untraced runs pay nothing measurable. Spans carry a name,
/// start, end, parent span and run id; they are kept until write_json().
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = 0;
  };

  explicit Tracer(bool enabled) : enabled_{enabled} {}
  bool enabled() const noexcept { return enabled_; }

  /// Spans opened from now on belong to this run id.
  void set_run(int run) noexcept { run_ = run; }

  /// Open a span as a child of the innermost open one; -1 when disabled.
  int begin(const std::string& name);
  void end(int id);

  /// Record a finished span whose bounds were measured elsewhere (e.g.
  /// stage durations reported by the program), under `parent`.
  int add(const std::string& name, double start, double end, int parent);

  /// Duration of span `id` minus the part of it its children cover.
  double self_time(int id) const;

  /// Sum of self times per span name over the spans of one run.
  std::map<std::string, double> self_times(int run) const;

  /// Write every span plus `env_json` (a JSON object) to `path`.
  void write_json(const std::string& path, const std::string& env_json) const;

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_{tracer}, id_{tracer.begin(name)} {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
