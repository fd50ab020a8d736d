// Observability layer tests — the registry/trace contracts the engine
// leans on: thread-local shards merge into stable totals (surviving thread
// exit), the runtime kill switch stops counting, CounterFrame captures only
// the calling thread's deltas (the per-job determinism the artifact
// `obs` blocks depend on), emitted traces round-trip through the structural
// Chrome-trace validator, campaign artifacts with obs blocks stay
// byte-identical across 1/4/16 runner threads and kill+resume, --no-obs
// records equal the obs records with the block stripped, and every counter
// table agrees bit-for-bit with the registry after a real audit, churn
// trace, batched sweep and cache run.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/runner.hpp"
#include "engine/sinks.hpp"
#include "engine/spec.hpp"
#include "engine/tasks.hpp"
#include "game/churn.hpp"
#include "game/equilibrium.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

TEST(MetricRegistry, ShardsMergeAcrossThreadsAndSurviveExit) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::CounterId id = obs::register_counter("test.registry.merge");
  const std::uint64_t before = obs::total(id);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([id] {
      for (int i = 0; i < 1000; ++i) obs::add(id, 1);
    });
  }
  for (auto& thread : threads) thread.join();
  // The worker threads have exited; their shards must have folded into the
  // retained totals rather than vanishing with the threads.
  EXPECT_EQ(obs::total(id), before + 4000);

  bool found = false;
  std::string previous;
  for (const obs::CounterValue& counter : obs::snapshot()) {
    EXPECT_LT(previous, counter.name) << "snapshot must be name-sorted";
    previous = counter.name;
    if (counter.name == "test.registry.merge") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MetricRegistry, ReRegisteringReturnsTheSameId) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::CounterId a = obs::register_counter("test.registry.intern");
  const obs::CounterId b = obs::register_counter("test.registry.intern");
  EXPECT_EQ(a, b);
}

TEST(MetricRegistry, KillSwitchStopsCounting) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::CounterId id = obs::register_counter("test.registry.kill_switch");
  const std::uint64_t before = obs::total(id);
  obs::set_enabled(false);
  obs::add(id, 100);
  obs::set_enabled(true);
  EXPECT_EQ(obs::total(id), before);
  obs::add(id, 1);
  EXPECT_EQ(obs::total(id), before + 1);
}

TEST(MetricRegistry, CounterFrameIsThreadLocalAndJobScoped) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const obs::CounterId job_id = obs::register_counter("test.frame.job");
  const obs::CounterFrame frame;
  obs::add(job_id, 3);
  // Increments on another thread must not leak into this thread's frame —
  // that isolation is what makes per-job obs blocks deterministic.
  std::thread([job_id] { obs::add(job_id, 100); }).join();

  bool saw_job = false;
  for (const obs::CounterValue& delta : frame.deltas()) {
    if (delta.name == "test.frame.job") {
      saw_job = true;
      EXPECT_EQ(delta.value, 3u);
    }
  }
  EXPECT_TRUE(saw_job);
  EXPECT_EQ(frame.value("test.frame.job"), 3u);
  EXPECT_EQ(frame.value("test.frame.unregistered"), 0u);
}

TEST(TraceSession, EmittedTraceRoundTripsThroughTheValidator) {
  obs::trace::begin();
  {
    obs::TraceSpan outer("test.outer");
    outer.arg("label", std::string_view{"value"});
    outer.arg("number", std::uint64_t{7});
    obs::TraceSpan inner("test.inner");
  }
  std::thread([] { obs::TraceSpan span("test.worker"); }).join();
  const std::string json = obs::trace::end_json();
  const std::size_t events = obs::validate_trace_json(parse_json(json));
  if (obs::kCompiledIn) {
    EXPECT_GE(events, 3u) << json;
    EXPECT_NE(json.find("test.outer"), std::string::npos);
    EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
  } else {
    EXPECT_EQ(events, 0u) << "OFF build still renders an empty, valid trace";
  }
}

TEST(TraceSession, SpansOutsideASessionAreDropped) {
  {
    obs::TraceSpan span("test.orphan");
    EXPECT_FALSE(span.active());
  }
  obs::trace::begin();
  const std::string json = obs::trace::end_json();
  EXPECT_EQ(json.find("test.orphan"), std::string::npos);
  EXPECT_EQ(obs::validate_trace_json(parse_json(json)), 0u);
}

TEST(TraceSession, ValidatorRejectsStructurallyInvalidDocuments) {
  EXPECT_THROW(static_cast<void>(obs::validate_trace_json(parse_json("[]"))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::validate_trace_json(parse_json(R"({"other": []})"))),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::validate_trace_json(
                   parse_json(R"({"traceEvents": [{"name": "x"}]})"))),
               std::invalid_argument);
}

/// Every row of `table` must read in `frame` exactly what it reads off
/// `counts` (one unit of work's counts, or an accumulator since the frame).
template <class S>
void expect_table_agrees(const obs::CounterTable<S>& table, const S& counts,
                         const obs::CounterFrame& frame) {
  for (const auto& row : table.rows()) {
    EXPECT_EQ(frame.value(row.name), row.read(counts)) << row.name;
  }
}

TEST(MetricRegistry, EveryCounterTableAgreesWithTheRegistry) {
  if (!obs::kCompiledIn || !obs::enabled()) GTEST_SKIP() << "registry inactive";
  Rng rng(11);
  ThreadPool serial(1);  // every increment lands on this thread's frame
  const Digraph g = random_profile(random_budgets(24, 40, rng), rng);

  {  // A batched sweep.
    const UGraph u = erdos_renyi(80, 0.06, rng);
    const obs::CounterFrame frame;
    MultiBfs engine(u);
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < 70; ++v) sources.push_back(v);
    static_cast<void>(engine.run(sources));
    expect_table_agrees(multi_bfs_counters(), engine.stats(), frame);
  }
  {  // A real Nash audit; its MultiBfs prepass is the only bfs.multi publisher.
    const obs::CounterFrame frame;
    const NashReport report =
        verify_nash_equilibrium(g, CostVersion::Sum, {}, "exact_bb", &serial);
    expect_table_agrees(nash_audit_counters(), report, frame);
    expect_table_agrees(multi_bfs_counters(), report.prepass, frame);
  }
  {  // One backend solve publishes its result's work as solver.<name>.*.
    const obs::CounterFrame frame;
    const SolverResult result =
        find_solver("exact_bb").solve(g, 0, CostVersion::Max, {}, &serial);
    EXPECT_EQ(frame.value("solver.exact_bb.solves"), 1U);
    EXPECT_GT(result.nodes_explored, 0U);
    EXPECT_EQ(frame.value("solver.exact_bb.nodes"), result.nodes_explored);
    EXPECT_EQ(frame.value("solver.exact_bb.pruned"), result.nodes_pruned);
    EXPECT_EQ(frame.value("solver.exact_bb.evaluated"), result.evaluated);
    EXPECT_EQ(frame.value("solver.exact_bb.bfs_avoided"), result.bfs_avoided);
  }
  {  // A swap-stability sweep.
    const obs::CounterFrame frame;
    const EquilibriumReport report = verify_swap_equilibrium(g, CostVersion::Max, &serial);
    expect_table_agrees(swap_audit_counters(), report, frame);
  }
  {  // A churn trace, counted from construction.
    const obs::CounterFrame frame;
    ChurnConfig config;
    config.budget.node_limit = 200'000;
    ChurnEngine engine(g, g.budgets(), config, &serial);
    ChurnTraceSampler sampler({}, /*max_budget=*/3, /*seed=*/7);
    for (int e = 0; e < 24; ++e) {
      const auto event = sampler.next(engine.graph(), engine.budgets());
      if (!event) break;
      engine.apply(*event);
    }
    EXPECT_GT(engine.stats().skips_clean + engine.stats().skips_locality, 0U);
    expect_table_agrees(churn_counters(), engine.stats(), frame);
  }
  {  // Transposition-cache traffic: every player solved twice in a row
     // (a miss, then a hit) through a 4-entry memo that keeps flushing.
    TranspositionCache cache(4);
    const BestResponseBackend& exact = find_solver("exact_bb");
    const obs::CounterFrame frame;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (g.out_degree(v) == 0) continue;
      for (int repeat = 0; repeat < 2; ++repeat) {
        static_cast<void>(exact.solve(g, v, CostVersion::Sum, {}, &serial, &cache));
      }
    }
    EXPECT_GT(cache.stats().hits, 0U);
    EXPECT_GT(cache.stats().flushes, 0U);
    expect_table_agrees(TranspositionCache::counters(), cache.stats(), frame);
    EXPECT_EQ(frame.value("solver.exact_bb.cache_served"), cache.stats().hits);
    EXPECT_EQ(frame.value("solver.exact_bb.solves"), cache.stats().misses);
  }
}

// ---------------------------------------------------------------------------
// Campaign-level determinism of the embedded obs blocks.

// Mixes the three most heavily instrumented task kinds: the nash audit
// (multi-BFS prepass + solver backends), churn (flush-point deltas), and
// dynamics (delta evaluator + social cost).
const char* kObsCampaignText = R"({
  "name": "obs_probe",
  "base_seed": 5,
  "scenarios": [
    {"name": "nash", "task": "nash_audit", "version": "sum",
     "budgets": {"family": "tree"}, "grid": {"n": [6, 7]},
     "seeds": {"begin": 0, "end": 4},
     "params": {"solver": "exact_bb", "solver_budget": {"node_limit": 200000}}},
    {"name": "churny", "task": "churn", "version": "sum",
     "budgets": {"family": "tree"}, "grid": {"n": [8]},
     "seeds": {"begin": 0, "end": 4},
     "params": {"churn": {"events": 12, "checkpoint_every": 6, "mode": "track",
                          "max_budget": 3,
                          "weights": {"join": 4, "leave": 1, "grow": 4,
                                      "shrink": 1, "perturb": 1}}}},
    {"name": "dyn", "task": "dynamics", "version": "sum",
     "budgets": {"family": "tree"}, "grid": {"n": [6]},
     "seeds": {"begin": 0, "end": 4},
     "params": {"max_rounds": 100, "exact_limit": 5000}}
  ]
})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ObsCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    campaign_ = parse_campaign_spec(kObsCampaignText);
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("bbng_obs_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& leaf) const { return (dir_ / leaf).string(); }

  [[nodiscard]] RunnerConfig config(const std::string& leaf, unsigned threads) const {
    RunnerConfig cfg;
    cfg.output_path = path(leaf);
    cfg.threads = threads;
    cfg.checkpoint_every = 5;
    return cfg;
  }

  CampaignSpec campaign_;
  std::filesystem::path dir_;
};

TEST_F(ObsCampaignTest, ObsBlocksAreByteIdenticalAcrossThreadCountsAndResume) {
  const RunnerConfig reference_cfg = config("reference.jsonl", 1);
  ASSERT_TRUE(run_campaign(campaign_, kObsCampaignText, reference_cfg).completed);
  const std::string reference = read_file(reference_cfg.output_path);

  for (const unsigned threads : {4u, 16u}) {
    // Built by append: `"t" + std::to_string(...)` trips a GCC 12
    // -Wrestrict false positive inside basic_string::insert.
    std::string artifact = "t";
    artifact += std::to_string(threads);
    artifact += ".jsonl";
    const RunnerConfig cfg = config(artifact, threads);
    ASSERT_TRUE(run_campaign(campaign_, kObsCampaignText, cfg).completed);
    EXPECT_EQ(read_file(cfg.output_path), reference) << "threads=" << threads;
  }

  RunnerConfig kill_cfg = config("kill.jsonl", 3);
  kill_cfg.halt_after = 7;
  ASSERT_FALSE(run_campaign(campaign_, kObsCampaignText, kill_cfg).completed);
  const RunnerConfig resume_cfg = config("kill.jsonl", 16);
  ASSERT_TRUE(resume_campaign(campaign_, kObsCampaignText, resume_cfg).completed);
  EXPECT_EQ(read_file(resume_cfg.output_path), reference);
}

TEST_F(ObsCampaignTest, RecordsCarryObsAsLastMemberAndSummaryAggregatesIt) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with BBNG_OBS=OFF";
  const RunnerConfig cfg = config("artifact.jsonl", 2);
  ASSERT_TRUE(run_campaign(campaign_, kObsCampaignText, cfg).completed);
  const JsonlFile file = read_jsonl(cfg.output_path);
  ASSERT_EQ(file.records.size(), campaign_.num_jobs());
  bool saw_solver_counter = false;
  for (const JsonValue& record : file.records) {
    const auto& members = record.members();
    ASSERT_FALSE(members.empty());
    EXPECT_EQ(members.back().first, "obs");
    const JsonValue& obs_block = members.back().second;
    ASSERT_TRUE(obs_block.is_object());
    for (const auto& [name, value] : obs_block.members()) {
      EXPECT_TRUE(value.is_int()) << name;
      EXPECT_GT(value.as_uint(), 0u) << name << " (deltas() emits nonzero counters only)";
      if (name.rfind("solver.", 0) == 0) saw_solver_counter = true;
    }
  }
  EXPECT_TRUE(saw_solver_counter);

  const JsonValue summary = parse_json(read_file(summary_path_for(cfg.output_path)));
  const JsonValue& nash = summary.at("scenarios").items()[0];
  EXPECT_EQ(nash.at("name").as_string(), "nash");
  // The prepass row scans must have been flattened into an aggregated
  // "obs."-prefixed numeric field covering every job of the scenario.
  const JsonValue& row_scans = nash.at("numbers").at("obs.bfs.multi.row_scans");
  EXPECT_EQ(row_scans.at("count").as_uint(), nash.at("jobs").as_uint());
  EXPECT_GT(row_scans.at("mean").as_double(), 0.0);
}

TEST_F(ObsCampaignTest, NoObsReproducesPreObservabilityBytes) {
  const RunnerConfig on_cfg = config("on.jsonl", 2);
  ASSERT_TRUE(run_campaign(campaign_, kObsCampaignText, on_cfg).completed);
  RunnerConfig off_cfg = config("off.jsonl", 2);
  off_cfg.obs = false;
  ASSERT_TRUE(run_campaign(campaign_, kObsCampaignText, off_cfg).completed);

  std::istringstream on_stream(read_file(on_cfg.output_path));
  std::istringstream off_stream(read_file(off_cfg.output_path));
  std::string on_line;
  std::string off_line;
  ASSERT_TRUE(std::getline(on_stream, on_line) && std::getline(off_stream, off_line));
  EXPECT_EQ(on_line, off_line);  // headers agree
  std::uint64_t records = 0;
  while (std::getline(on_stream, on_line)) {
    ASSERT_TRUE(std::getline(off_stream, off_line));
    ++records;
    if (!obs::kCompiledIn) {
      EXPECT_EQ(on_line, off_line);
      continue;
    }
    // The obs block is the record's LAST member, so dropping it is exactly
    // a suffix strip: everything before `,"obs":` plus the closing brace.
    const std::size_t at = on_line.find(R"(,"obs":)");
    ASSERT_NE(at, std::string::npos) << on_line;
    EXPECT_EQ(on_line.substr(0, at) + "}", off_line);
  }
  EXPECT_FALSE(std::getline(off_stream, off_line));
  EXPECT_EQ(records, campaign_.num_jobs());
}

TEST_F(ObsCampaignTest, ProgressLineCarriesCumulativeWorkCounters) {
  RunnerConfig cfg = config("progress.jsonl", 2);
  cfg.progress = true;
  cfg.progress_interval_seconds = 0;
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(run_campaign(campaign_, kObsCampaignText, cfg).completed);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(stderr_text.find("searches "), std::string::npos) << stderr_text;
  EXPECT_NE(stderr_text.find("row_scans "), std::string::npos) << stderr_text;
  // The counters ride before the eta: numeric-eta lines still end in 's'.
  std::istringstream stream(stderr_text);
  for (std::string line; std::getline(stream, line);) {
    if (line.rfind("progress:", 0) == 0 && line.find("eta ?") == std::string::npos) {
      EXPECT_EQ(line.back(), 's') << line;
    }
  }
}

}  // namespace
}  // namespace bbng
