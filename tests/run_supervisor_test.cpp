// Supervised (multi-process) runner: at any worker and shard count the
// report must be byte-identical to the inline (workers = 0) run and to the
// report written from the in-memory driver (run_pipeline); injected
// worker crashes, hangs, and garbage outputs must be detected, retried, and
// still converge on the same bytes; a shard task that exhausts its retry
// budget must be quarantined (degraded report + manifest row) and the
// quarantine must survive --resume; a mid-stage deadline hit must leave the
// workdir resumable to an identical report; a worker's task must finish
// without waiting out its heartbeat tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/run.hpp"
#include "core/supervisor.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/fsio.hpp"

namespace dnsembed::core {
namespace {

namespace fs = std::filesystem;

RunOptions small_options(const std::string& workdir) {
  RunOptions options;
  options.workdir = workdir;
  auto& config = options.config;
  config.trace.seed = 31;
  config.trace.hosts = 40;
  config.trace.days = 2;
  config.trace.benign_sites = 150;
  config.trace.malware_families = 4;
  config.trace.min_victims = 3;
  config.trace.max_victims = 8;
  config.embedding_dimension = 8;
  config.embedding.line.total_samples = 50'000;
  config.embedding.line.threads = 2;
  config.kfold = 3;
  config.xmeans.k_min = 4;
  config.xmeans.k_max = 16;
  return options;
}

RunOptions supervised_options(const std::string& workdir) {
  auto options = small_options(workdir);
  options.supervise.workers = 2;
  options.supervise.projection_shards = 2;
  options.supervise.max_retries = 2;
  options.supervise.heartbeat_interval_seconds = 0.05;
  return options;
}

// A supervised run decomposes into trace, 3 channels x `shards`
// projection shards, 3 per-channel embeds, labels and report.
constexpr std::size_t task_count(std::size_t shards) { return 6 + 3 * shards; }

// supervised_options() uses 2 shards: 12 tasks.
constexpr std::size_t kTaskCount = task_count(2);
static_assert(kTaskCount == 12);

class RunSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One workdir per test case: ctest runs the discovered cases in
    // parallel, so a shared directory would be clobbered mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string{"dnsembed_run_supervisor_"} + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::remove_all(dir_ + "_ref");
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::remove_all(dir_ + "_ref", ec);
  }

  /// Report bytes of an uninterrupted single-process run of the same config.
  std::string reference_report() {
    const auto summary = run_resumable(small_options(dir_ + "_ref"));
    return util::fsio::read_file(summary.report_path);
  }

  /// The same config through the in-memory driver, reported by the calls
  /// the durable report stage makes.
  static std::string in_memory_report() {
    const auto config = small_options("").config;
    const auto result = run_pipeline(config);
    const auto evals = evaluate_channels(result, config);
    const auto clusters = cluster_domains(result.combined_embedding, result.model.kept_domains,
                                          result.trace.truth, config.xmeans);
    std::ostringstream out;
    write_detection_report(out, result, evals, clusters);
    return out.str();
  }

  std::string dir_;
};

/// (workers, shards) of one supervised configuration.
struct WorkerShards {
  std::size_t workers;
  std::size_t shards;
};

void PrintTo(const WorkerShards& p, std::ostream* out) {
  *out << "workers" << p.workers << "_shards" << p.shards;
}

class SupervisedReportTest : public RunSupervisorTest,
                             public ::testing::WithParamInterface<WorkerShards> {};

// Every executor configuration must produce the inline (workers = 0)
// report byte for byte — including one shard per channel, where the
// projection task writes the final CSR itself as the inline executor does
// — and the inline report must equal the in-memory driver's.
TEST_P(SupervisedReportTest, SupervisedReportMatchesSingleProcess) {
  const auto reference = reference_report();
  EXPECT_EQ(reference, in_memory_report());
  const auto [workers, shards] = GetParam();
  const auto options_for = [&] {
    auto options = supervised_options(dir_);
    options.supervise.workers = workers;
    options.supervise.projection_shards = shards;
    return options;
  };

  const auto summary = run_resumable(options_for());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
  EXPECT_EQ(summary.supervision.tasks_run, task_count(shards));
  EXPECT_EQ(summary.supervision.restarts, 0u);
  EXPECT_EQ(summary.supervision.crashes, 0u);
  EXPECT_TRUE(summary.quarantined.empty());

  // A supervised --resume over the completed workdir skips every stage and
  // runs no worker at all.
  auto resume = options_for();
  resume.resume = true;
  const auto second = run_resumable(resume);
  EXPECT_EQ(second.resumed_stages, second.stages.size());
  EXPECT_EQ(second.supervision.tasks_run, 0u);
  EXPECT_EQ(util::fsio::read_file(second.report_path), reference);
}

INSTANTIATE_TEST_SUITE_P(WorkersShards, SupervisedReportTest,
                         ::testing::Values(WorkerShards{1, 1}, WorkerShards{2, 2},
                                           WorkerShards{4, 3}),
                         [](const ::testing::TestParamInfo<WorkerShards>& info) {
                           return "workers" + std::to_string(info.param.workers) +
                                  "_shards" + std::to_string(info.param.shards);
                         });

// A run killed right after ip.emb commits resumes to the in-memory
// driver's report.
TEST_F(RunSupervisorTest, CrashedAndResumedRunMatchesInMemoryReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto crash = small_options(dir_);
  crash.crash_after_artifact = "ip.emb";
  EXPECT_EXIT(run_resumable(crash), ::testing::ExitedWithCode(137), "");

  auto resume = small_options(dir_);
  resume.resume = true;
  const auto summary = run_resumable(resume);
  EXPECT_EQ(summary.resumed_stages, 2u);  // trace, behavior
  EXPECT_EQ(util::fsio::read_file(summary.report_path), in_memory_report());
}

TEST_F(RunSupervisorTest, CrashedWorkersAreRetriedToIdenticalReport) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  // Every task's first attempt dies with exit 137; the cap guarantees the
  // retry comes up clean, so each task restarts exactly once.
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto summary = run_resumable(options);

  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.crashes, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

TEST_F(RunSupervisorTest, GarbageOutputsAreCaughtByValidationAndRetried) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  options.supervise.process_faults.proc_garbage_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto summary = run_resumable(options);

  // Tasks with container outputs commit garbage over them (caught by digest
  // validation); tasks with only plain-file outputs escalate to a crash, so
  // either way every task fails exactly once.
  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, kTaskCount);
  EXPECT_GE(summary.supervision.corrupt_outputs, 1u);
  EXPECT_EQ(summary.supervision.corrupt_outputs + summary.supervision.crashes,
            kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

TEST_F(RunSupervisorTest, HungWorkersAreKilledAndRetried) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  options.supervise.process_faults.proc_hang_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  options.supervise.heartbeat_timeout_seconds = 0.4;
  const auto summary = run_resumable(options);

  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.hangs_killed, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

TEST_F(RunSupervisorTest, ExhaustedShardIsQuarantinedAndSurvivesResume) {
  auto options = supervised_options(dir_);
  // One projection shard crashes on every attempt (no per-task cap); with
  // max_retries = 1 its second failure exhausts the budget.
  options.supervise.max_retries = 1;
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_target = "behavior.query.s1";
  const auto summary = run_resumable(options);

  const std::vector<std::string> expected{"behavior.query.s1"};
  EXPECT_EQ(summary.quarantined, expected);
  EXPECT_EQ(summary.supervision.quarantined, expected);
  EXPECT_EQ(summary.supervision.restarts, 1u);
  EXPECT_EQ(summary.supervision.crashes, 2u);

  // The degraded report flags the quarantine, and the manifest records it.
  const auto report = util::fsio::read_file(summary.report_path);
  EXPECT_NE(report.find("Degraded run"), std::string::npos);
  EXPECT_NE(report.find("behavior.query.s1"), std::string::npos);
  const auto manifest = util::fsio::read_file(dir_ + "/manifest.run");
  EXPECT_NE(manifest.find("quarantined behavior.query.s1"), std::string::npos);

  // --resume over the degraded workdir carries the quarantine forward
  // without re-running anything, byte-identically.
  auto resume = supervised_options(dir_);
  resume.resume = true;
  const auto second = run_resumable(resume);
  EXPECT_EQ(second.resumed_stages, second.stages.size());
  EXPECT_EQ(second.quarantined, expected);
  EXPECT_EQ(util::fsio::read_file(second.report_path), report);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

TEST_F(RunSupervisorTest, MergedTelemetryMatchesSingleProcessCounters) {
  // Worker telemetry dies with the child unless the sidecars round-trip it;
  // after the merge, the deterministic pipeline counters (disjoint projection
  // edge emissions, one add per LINE SGD sample) must match a single-process
  // run byte for byte — even with every task's first attempt crashing, since
  // only the successful attempt's sidecar is merged.
  obs::set_metrics_enabled(true);
  obs::SpanRecorder::instance().set_enabled(true);
  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();

  (void)run_resumable(small_options(dir_ + "_ref"));
  const auto single = obs::metrics().snapshot();
  const auto single_edges = counter_value(single, "graph.projection.edges");
  const auto single_samples = counter_value(single, "embed.line.samples");
  ASSERT_GT(single_edges, 0u);
  ASSERT_GT(single_samples, 0u);

  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();

  auto options = supervised_options(dir_);
  options.supervise.workers = 4;
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto summary = run_resumable(options);
  EXPECT_EQ(summary.supervision.crashes, kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());

  const auto merged = obs::metrics().snapshot();
  EXPECT_EQ(counter_value(merged, "graph.projection.edges"), single_edges);
  EXPECT_EQ(counter_value(merged, "embed.line.samples"), single_samples);

  // The merged trace carries one named process lane per worker task.
  const auto lanes = obs::SpanRecorder::instance().process_lanes();
  EXPECT_EQ(lanes.size(), kTaskCount);
  for (const auto& lane : lanes) {
    EXPECT_FALSE(lane.name.empty());
    EXPECT_FALSE(lane.events.empty()) << lane.name;
  }

  obs::set_metrics_enabled(false);
  obs::SpanRecorder::instance().set_enabled(false);
  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();
}

std::vector<std::pair<std::string, std::int64_t>> scenario_gauges(
    const std::vector<std::pair<std::string, std::int64_t>>& gauges) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& gauge : gauges) {
    if (gauge.first.starts_with("scenario.")) out.push_back(gauge);
  }
  return out;
}

TEST_F(RunSupervisorTest, WorkerGaugesMatchSingleProcessGauges) {
  // The labels and report tasks publish the scenario.* gauges; in a forked
  // worker they reach the exported snapshot only through the sidecar merge.
  obs::set_metrics_enabled(true);
  obs::metrics().reset_values();

  (void)run_resumable(supervised_options(dir_));
  const auto forked = scenario_gauges(obs::metrics().snapshot().gauges);
  const auto forked_written = scenario_gauges(obs::metrics().written_gauges());
  obs::metrics().reset_values();

  (void)run_resumable(small_options(dir_ + "_ref"));
  const auto single = scenario_gauges(obs::metrics().snapshot().gauges);
  const auto single_written = scenario_gauges(obs::metrics().written_gauges());
  ASSERT_GE(single_written.size(), 5u);  // archetypes + 4 per scenario tag

  EXPECT_EQ(forked, single);
  EXPECT_EQ(forked_written, single_written);

  obs::set_metrics_enabled(false);
  obs::metrics().reset_values();
}

TEST_F(RunSupervisorTest, StatusFileReflectsRetryInFlight) {
  auto options = supervised_options(dir_);
  options.supervise.status_path = dir_ + "_status.json";
  // Every first attempt crashes, so every task goes through backoff and a
  // second attempt — the live status file must expose that retry while the
  // run is still in flight.
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;

  std::atomic<bool> done{false};
  std::string error;
  std::thread runner{[&] {
    try {
      (void)run_resumable(options);
    } catch (const std::exception& e) {
      error = e.what();
    }
    done.store(true);
  }};
  bool saw_retry = false;
  while (!done.load()) {
    try {
      const auto status = util::fsio::read_file(options.supervise.status_path);
      if (status.find("\"attempt\": 2") != std::string::npos) saw_retry = true;
    } catch (const util::fsio::IoError&) {
      // Not written yet; the atomic rename guarantees we never see a torn
      // intermediate once it exists.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(saw_retry);

  // After completion the file persists with one terminal row per task.
  const auto final_status = util::fsio::read_file(options.supervise.status_path);
  EXPECT_NE(final_status.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(final_status.find("\"tasks\": ["), std::string::npos);
  EXPECT_NE(final_status.find("\"task\": \"report\""), std::string::npos);
  EXPECT_NE(final_status.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(final_status.find("\"attempts_reaped\": 2"), std::string::npos);
  fs::remove(options.supervise.status_path);
}

TEST_F(RunSupervisorTest, DeadlineMidStageLeavesWorkdirResumable) {
  const auto reference = reference_report();

  // Force the deadline to fire right after the first behavior artifact
  // (query_sim.csr) commits: the stage aborts mid-way with some artifacts
  // committed and some not, which is exactly the state --resume must
  // recover from.
  auto options = small_options(dir_);
  options.stage_deadline_seconds = 30.0;
  options.expire_deadline_after_artifact = "query_sim.csr";
  EXPECT_THROW(run_resumable(options), StageDeadlineExceeded);

  options.stage_deadline_seconds = 0.0;
  options.expire_deadline_after_artifact.clear();
  options.resume = true;
  const auto summary = run_resumable(options);
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);

  // The stage before the interruption resumed (the mid-stage abort saved
  // the manifest with its record intact); the interrupted stage and
  // everything after it re-ran.
  ASSERT_GE(summary.stages.size(), 2u);
  EXPECT_EQ(summary.stages.front().name, "trace");
  EXPECT_TRUE(summary.stages.front().resumed);
  for (const auto& stage : summary.stages) {
    if (stage.name != "trace") {
      EXPECT_FALSE(stage.resumed) << stage.name;
    }
  }
}

TEST_F(RunSupervisorTest, DeadlineMidStageLeavesSupervisedRunResumable) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  options.stage_deadline_seconds = 30.0;
  options.expire_deadline_after_artifact = "query_sim.csr";
  EXPECT_THROW(run_resumable(options), StageDeadlineExceeded);

  options.stage_deadline_seconds = 0.0;
  options.expire_deadline_after_artifact.clear();
  options.resume = true;
  const auto summary = run_resumable(options);
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

// The worker's heartbeat thread must wake when the task body returns, not
// at its next tick: with a 2 s interval, one no-op task still finishes in
// well under a second.
TEST(SupervisorHeartbeat, TaskCompletionDoesNotWaitForTheNextTick) {
  const auto dir = (fs::temp_directory_path() / "dnsembed_supervisor_heartbeat").string();
  fs::remove_all(dir);
  SupervisorOptions options;
  options.workers = 1;
  options.heartbeat_interval_seconds = 2.0;
  Supervisor supervisor{dir, options};
  supervisor.reset_scratch("0123456789abcdef", /*resume=*/false);
  const WorkerTask noop{.name = "noop", .outputs = {}, .body = [](const std::function<void()>&) {}};

  const auto start = std::chrono::steady_clock::now();
  supervisor.run_tasks({noop}, [] {});
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
  EXPECT_EQ(supervisor.stats().tasks_run, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dnsembed::core
