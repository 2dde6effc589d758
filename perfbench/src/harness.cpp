#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage usage;
  usage.cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime) + seconds(children.ru_utime) +
                seconds(children.ru_stime);
  usage.peak_rss_mb =
      static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
  return usage;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void MetricTable::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = Entry{value, unit};
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc{} ? std::string(buf, end) : "null";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ", ") + json_number(v);
  return out;
}

std::string MetricTable::json(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (const auto& name : names) {
    const auto it = values_.find(name);
    if (it == values_.end()) continue;
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(it->second.value) +
           ", \"unit\": " + json_string(it->second.unit) + "}";
  }
  return out + "}";
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back(), run_});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(const std::string& name, double start, double end, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, run_});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::self_time(int id) const {
  const auto& span = spans_[static_cast<std::size_t>(id)];
  // Children of one parent never overlap (they are sequential calls), so
  // their covered share is the sum of their clipped durations.
  double covered = 0.0;
  for (const auto& child : spans_) {
    if (child.parent != id) continue;
    covered += std::max(0.0, std::min(child.end, span.end) - std::max(child.start, span.start));
  }
  return std::max(0.0, (span.end - span.start) - covered);
}

std::map<std::string, double> Tracer::self_times(int run) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run == run) out[spans_[i].name] += self_time(static_cast<int>(i));
  }
  return out;
}

void Tracer::write_json(const std::string& path, const std::string& env_json) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write span file " + path};
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"env\": " << env_json << ",\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"run\": " << s.run << ", \"parent\": " << s.parent
        << ", \"start_s\": " << json_number(s.start - origin)
        << ", \"end_s\": " << json_number(s.end - origin)
        << ", \"self_s\": " << json_number(self_time(static_cast<int>(i))) << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
