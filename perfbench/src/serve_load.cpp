#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>

#include "harness.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

namespace serve = dnsembed::serve;

void save_universe(ServeUniverse& universe, const std::string& dir) {
  universe.embeddings_path = dir + "/serve.emb";
  universe.model_path = dir + "/serve.svm";
  universe.embedding.save_arena_file(universe.embeddings_path);
  universe.model.save_file(universe.model_path);
}

std::vector<Request> make_requests(const ServeUniverse& universe, std::size_t count,
                                   std::uint64_t seed) {
  const std::size_t rows = universe.embedding.size();
  const std::size_t tail = rows - universe.indexed;
  const dnsembed::util::ZipfSampler zipf{universe.indexed, 0.99};
  dnsembed::util::Rng rng{seed};
  std::vector<Request> out(count);
  for (auto& request : out) {
    const double u = rng.uniform();
    if (u < 0.85 || (u < 0.95 && tail == 0)) {
      request = {static_cast<std::uint32_t>(zipf.sample(rng)), kIndexHit};
    } else if (u < 0.95) {
      request = {static_cast<std::uint32_t>(universe.indexed + rng.uniform_index(tail)),
                 kBatched};
    } else {
      request = {static_cast<std::uint32_t>(rng.uniform_index(universe.unknown.size())),
                 kUnknown};
    }
  }
  return out;
}

void expected_scores(const ServeUniverse& universe, const std::vector<Request>& requests,
                     std::size_t threads, std::vector<double>& expected) {
  const std::size_t rows = universe.embedding.size();
  if (expected.size() != rows) expected.assign(rows, std::numeric_limits<double>::quiet_NaN());
  std::vector<std::uint32_t> todo;
  for (const auto& request : requests) {
    if (request.kind != kUnknown && std::isnan(expected[request.row])) {
      expected[request.row] = 0.0;  // claimed; computed below
      todo.push_back(request.row);
    }
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    std::vector<double> x(universe.embedding.dimension());
    for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
      const auto src = universe.embedding.row(todo[i]);
      std::copy(src.begin(), src.end(), x.begin());
      expected[todo[i]] = universe.model.decision_value(x);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t) pool.emplace_back(work);
  work();
  for (auto& thread : pool) thread.join();
}

namespace {

struct Sample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  Kind kind = kIndexHit;
};

double to_us(double seconds) { return seconds * 1e6; }

}  // namespace

PhaseResult run_phase(serve::ServeEngine& engine, const ServeUniverse& universe,
                      const std::vector<Request>& requests, const std::vector<double>& expected,
                      const PhaseOptions& options) {
  const std::size_t clients = std::max<std::size_t>(options.clients, 1);
  const auto& names = universe.embedding.names();
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::size_t> failed(clients, 0);
  const double start = now_s() + 2e-3;  // let every thread reach its first due time

  std::atomic<bool> clients_done{false};
  std::mutex reload_mutex;  // guards reloads and reload_error
  std::vector<std::pair<double, double>> reloads;
  std::string reload_error;
  std::thread reloader;
  if (options.reload_every_s > 0.0) {
    reloader = std::thread{[&] {
      const auto pause = std::chrono::duration<double>(options.reload_every_s);
      while (!clients_done.load()) {
        std::this_thread::sleep_for(pause);
        if (clients_done.load()) break;
        const double t0 = now_s();
        try {
          engine.reload();
        } catch (const std::exception& e) {
          // The engine keeps serving the old snapshot; report, don't die.
          const std::lock_guard<std::mutex> lock{reload_mutex};
          reload_error = e.what();
          break;
        }
        const double t1 = now_s();
        const std::lock_guard<std::mutex> lock{reload_mutex};
        reloads.emplace_back(t0, t1);
      }
    }};
  }

  const auto client = [&](std::size_t t) {
    auto& mine = samples[t];
    mine.reserve(requests.size() / clients + 1);
    for (std::size_t g = t; g < requests.size(); g += clients) {
      const Request request = requests[g];
      const double due = start + static_cast<double>(g) / options.rate;
      double sent = now_s();
      while (sent < due) sent = now_s();
      const std::string_view name = request.kind == kUnknown
                                        ? std::string_view{universe.unknown[request.row]}
                                        : std::string_view{names[request.row]};
      const auto result = engine.lookup(name);
      const double done = now_s();
      const auto want = request.kind == kIndexHit  ? serve::ScoreSource::kIndex
                        : request.kind == kBatched ? serve::ScoreSource::kBatched
                                                   : serve::ScoreSource::kUnknown;
      if (result.source != want ||
          (request.kind != kUnknown && result.score != expected[request.row])) {
        ++failed[t];
      }
      mine.push_back({due, sent, done, request.kind});
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < clients; ++t) threads.emplace_back(client, t);
  client(0);
  for (auto& thread : threads) thread.join();
  clients_done.store(true);
  if (reloader.joinable()) reloader.join();

  PhaseResult out;
  out.rate = options.rate;
  double last_done = start;
  std::vector<Sample> merged;
  for (std::size_t t = 0; t < clients; ++t) {
    out.failed += failed[t];
    merged.insert(merged.end(), samples[t].begin(), samples[t].end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  out.attempted = merged.size();
  const std::size_t windows = std::max<std::size_t>(options.windows, 1);
  std::vector<std::vector<double>> window_latency(windows);
  std::vector<std::vector<double>> window_lag(windows);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const auto& s = merged[i];
    last_done = std::max(last_done, s.done);
    const double latency = to_us(s.done - s.due);
    const double lag = to_us(s.sent - s.due);
    out.latency_us[s.kind].push_back(latency);
    out.lag_us.push_back(lag);
    window_latency[i * windows / merged.size()].push_back(latency);
    window_lag[i * windows / merged.size()].push_back(lag);
    for (const auto& [r0, r1] : reloads) {
      if (s.due < r1 && s.done > r0) {
        out.during_reload_us.push_back(latency);
        break;
      }
    }
  }
  for (auto* v : {&out.latency_us[0], &out.latency_us[1], &out.latency_us[2], &out.lag_us,
                  &out.during_reload_us}) {
    std::sort(v->begin(), v->end());
  }
  for (std::size_t w = 0; w < windows; ++w) {
    std::sort(window_latency[w].begin(), window_latency[w].end());
    std::sort(window_lag[w].begin(), window_lag[w].end());
    out.window_p50_us.push_back(sorted_quantile(window_latency[w], 0.50));
    out.window_p99_us.push_back(sorted_quantile(window_latency[w], 0.99));
    out.window_lag_p50_us.push_back(sorted_quantile(window_lag[w], 0.50));
  }
  out.achieved = static_cast<double>(merged.size()) / std::max(last_done - start, 1e-9);
  for (const auto& [r0, r1] : reloads) out.reload_s.push_back(r1 - r0);
  out.reload_error = std::move(reload_error);
  return out;
}

}  // namespace perfbench
