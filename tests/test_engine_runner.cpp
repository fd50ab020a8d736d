// Runner determinism tests — the engine's core contract: a campaign's JSONL
// artifact is byte-identical at any thread count, any checkpoint cadence,
// and across forced kill+resume at several job indices (including a chain
// of kills), because jobs are pure functions committed in id order and the
// checkpoint manifest journals the committed prefix exactly.
#include "engine/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/sinks.hpp"
#include "reference/naive_bootstrap.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bbng {
namespace {

// 2 scenarios × small grids = 28 jobs, mixing two task kinds.
const char* kCampaignText = R"({
  "name": "runner_probe",
  "base_seed": 3,
  "scenarios": [
    {"name": "dyn", "task": "dynamics", "version": "sum",
     "budgets": {"family": "tree"}, "grid": {"n": [6, 8]},
     "seeds": {"begin": 0, "end": 10},
     "params": {"max_rounds": 100, "exact_limit": 5000}},
    {"name": "swap", "task": "swap_equilibrium", "version": "max",
     "budgets": {"family": "unit"}, "grid": {"n": [7]},
     "seeds": {"begin": 0, "end": 8}}
  ]
})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class EngineRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    campaign_ = parse_campaign_spec(kCampaignText);
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("bbng_engine_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& leaf) const { return (dir_ / leaf).string(); }

  [[nodiscard]] RunnerConfig config(const std::string& leaf, unsigned threads,
                                    std::uint64_t checkpoint_every = 5) const {
    RunnerConfig cfg;
    cfg.output_path = path(leaf);
    cfg.threads = threads;
    cfg.checkpoint_every = checkpoint_every;
    return cfg;
  }

  /// Uninterrupted single-threaded run — the reference bytes.
  [[nodiscard]] std::string reference_bytes() {
    const RunnerConfig cfg = config("reference.jsonl", 1);
    const RunReport report = run_campaign(campaign_, kCampaignText, cfg);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.committed, campaign_.num_jobs());
    return read_file(cfg.output_path);
  }

  CampaignSpec campaign_;
  std::filesystem::path dir_;
};

TEST_F(EngineRunnerTest, ThreadCountDoesNotChangeTheBytes) {
  const std::string reference = reference_bytes();
  for (const unsigned threads : {2u, 4u, 7u}) {
    const RunnerConfig cfg =
        config("t" + std::to_string(threads) + ".jsonl", threads, /*checkpoint_every=*/3);
    const RunReport report = run_campaign(campaign_, kCampaignText, cfg);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(read_file(cfg.output_path), reference) << "threads=" << threads;
  }
}

TEST_F(EngineRunnerTest, WindowAndCadenceDoNotChangeTheBytes) {
  const std::string reference = reference_bytes();
  for (const std::uint64_t window : {1u, 3u, 100u}) {
    RunnerConfig cfg = config("w" + std::to_string(window) + ".jsonl", 2, 1);
    cfg.window = window;
    const RunReport report = run_campaign(campaign_, kCampaignText, cfg);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(read_file(cfg.output_path), reference) << "window=" << window;
  }
}

TEST_F(EngineRunnerTest, KillAndResumeIsByteIdentical) {
  const std::string reference = reference_bytes();
  const std::uint64_t total = campaign_.num_jobs();
  // Kill after the first commit, mid-run (off and on a checkpoint boundary),
  // exactly where the `dyn` scenario ends (20, so the resume's prefix holds
  // a finished scenario) and one job into `swap`, and one short of
  // completion; resume at a different thread count.
  for (const std::uint64_t kill_at : {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{15},
                                      std::uint64_t{20}, std::uint64_t{21}, total - 1}) {
    const std::string leaf = "kill" + std::to_string(kill_at) + ".jsonl";
    RunnerConfig cfg = config(leaf, 1);
    cfg.halt_after = kill_at;
    const RunReport halted = run_campaign(campaign_, kCampaignText, cfg);
    EXPECT_FALSE(halted.completed);
    EXPECT_EQ(halted.committed, kill_at);
    // A halted run must not have produced a summary (it lands only after the
    // full artifact, right before the completed manifest).
    EXPECT_FALSE(std::filesystem::exists(summary_path_for(cfg.output_path)));

    RunnerConfig resume_cfg = config(leaf, 3);
    const RunReport resumed = resume_campaign(campaign_, kCampaignText, resume_cfg);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.committed, total);
    // The resumed run re-executes only from the last checkpoint, never from 0.
    EXPECT_EQ(resumed.committed_before + resumed.executed, total);
    EXPECT_EQ(resumed.committed_before, kill_at - (kill_at % 5));
    EXPECT_EQ(read_file(resume_cfg.output_path), reference) << "kill_at=" << kill_at;
    EXPECT_EQ(read_file(summary_path_for(resume_cfg.output_path)),
              read_file(summary_path_for(path("reference.jsonl"))));
  }
}

TEST_F(EngineRunnerTest, ChainOfKillsStillConverges) {
  const std::string reference = reference_bytes();
  const std::string leaf = "chain.jsonl";
  RunnerConfig cfg = config(leaf, 2, /*checkpoint_every=*/4);
  cfg.halt_after = 3;
  EXPECT_FALSE(run_campaign(campaign_, kCampaignText, cfg).completed);
  for (const std::uint64_t kill_at : {std::uint64_t{11}, std::uint64_t{19}}) {
    RunnerConfig again = config(leaf, 1, /*checkpoint_every=*/4);
    again.halt_after = kill_at;
    const RunReport report = resume_campaign(campaign_, kCampaignText, again);
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(report.committed, kill_at);
  }
  const RunReport last = resume_campaign(campaign_, kCampaignText, config(leaf, 4));
  EXPECT_TRUE(last.completed);
  EXPECT_EQ(read_file(path(leaf)), reference);
  EXPECT_EQ(read_file(summary_path_for(path(leaf))),
            read_file(summary_path_for(path("reference.jsonl"))));
}

TEST_F(EngineRunnerTest, BitFlipInTheCommittedPrefixFailsTheResume) {
  // One bit flipped in the third record (job 2), well inside the prefix the
  // checkpoint at 10 journals: in its opening brace ('{' becomes 'z', so
  // the line no longer parses), or in its scenario name ("dyn" becomes
  // "eyn", which parses but names a scenario the spec does not have there).
  struct Damage {
    const char* leaf;
    std::string_view anchor;  ///< the flipped byte is the anchor's first
    std::string_view error;   ///< what the named error must say
  };
  for (const Damage& damage :
       {Damage{"brace.jsonl", "{", "JSON parse error"},
        Damage{"name.jsonl", "dyn\"", "is in scenario \"eyn\", but the spec puts it in"}}) {
    RunnerConfig cfg = config(damage.leaf, 2);
    cfg.halt_after = 12;
    EXPECT_FALSE(run_campaign(campaign_, kCampaignText, cfg).completed);
    const std::string manifest_before = read_file(manifest_path_for(cfg.output_path));

    std::string bytes = read_file(cfg.output_path);
    std::size_t at = 0;
    for (int newline = 0; newline < 3; ++newline) at = bytes.find('\n', at) + 1;
    at = bytes.find(damage.anchor, at);
    ASSERT_LT(at, bytes.find('\n', at));
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    {
      std::ofstream out(cfg.output_path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    try {
      static_cast<void>(resume_campaign(campaign_, kCampaignText, config(damage.leaf, 3)));
      ADD_FAILURE() << "resume accepted a damaged prefix: " << damage.leaf;
    } catch (const std::exception& error) {
      EXPECT_NE(std::string(error.what()).find(damage.error), std::string::npos)
          << error.what();
    }
    EXPECT_FALSE(std::filesystem::exists(summary_path_for(cfg.output_path)));
    EXPECT_FALSE(std::filesystem::exists(summary_path_for(cfg.output_path) + ".tmp"));
    // No job ran and no manifest was written, completed or not.
    EXPECT_EQ(read_file(manifest_path_for(cfg.output_path)), manifest_before);
    EXPECT_FALSE(parse_json(manifest_before).at("completed").as_bool());
  }
}

TEST_F(EngineRunnerTest, ManifestCountThatDisagreesWithThePrefixFailsTheResume) {
  RunnerConfig cfg = config("count.jsonl", 1);
  cfg.halt_after = 12;
  EXPECT_FALSE(run_campaign(campaign_, kCampaignText, cfg).completed);
  const std::string manifest_path = manifest_path_for(cfg.output_path);
  std::string manifest = read_file(manifest_path);
  const std::size_t at = manifest.find("\"committed_jobs\": 10");
  ASSERT_NE(at, std::string::npos) << manifest;
  manifest.replace(at, std::string("\"committed_jobs\": 10").size(), "\"committed_jobs\": 9");
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out << manifest;
  }
  try {
    static_cast<void>(resume_campaign(campaign_, kCampaignText, cfg));
    FAIL() << "resume trusted a manifest that miscounts its prefix";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("holds 10 records before its checkpoint offset"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(EngineRunnerTest, FoldedSummaryEqualsTheArtifactReadBack) {
  // The runner folds windows as they commit; write_summary_file folds the
  // finished file. Both are the one aggregation path, so the bytes agree.
  static_cast<void>(reference_bytes());
  const std::string artifact = path("reference.jsonl");
  write_summary_file(artifact, path("read_back.summary.json"));
  EXPECT_EQ(read_file(path("read_back.summary.json")), read_file(summary_path_for(artifact)));
}

TEST_F(EngineRunnerTest, ResumeOfACompletedRunIsANoOp) {
  const RunnerConfig cfg = config("done.jsonl", 1);
  EXPECT_TRUE(run_campaign(campaign_, kCampaignText, cfg).completed);
  const std::string before = read_file(cfg.output_path);
  const RunReport report = resume_campaign(campaign_, kCampaignText, cfg);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(read_file(cfg.output_path), before);
}

TEST_F(EngineRunnerTest, ResumeRefusesADifferentSpec) {
  RunnerConfig cfg = config("spec.jsonl", 1);
  cfg.halt_after = 4;
  EXPECT_FALSE(run_campaign(campaign_, kCampaignText, cfg).completed);
  const std::string other_text = std::string(kCampaignText) + "\n";
  const CampaignSpec other = parse_campaign_spec(other_text);
  try {
    static_cast<void>(resume_campaign(other, other_text, cfg));
    FAIL() << "resume accepted a different spec";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("different spec"), std::string::npos)
        << error.what();
  }
}

TEST_F(EngineRunnerTest, ResumeWithoutACheckpointRefuses) {
  EXPECT_THROW(
      static_cast<void>(resume_campaign(campaign_, kCampaignText, config("ghost.jsonl", 1))),
      std::invalid_argument);
}

TEST_F(EngineRunnerTest, RunRefusesToClobberWithoutOverwrite) {
  const RunnerConfig cfg = config("clobber.jsonl", 1);
  EXPECT_TRUE(run_campaign(campaign_, kCampaignText, cfg).completed);
  EXPECT_THROW(static_cast<void>(run_campaign(campaign_, kCampaignText, cfg)),
               std::invalid_argument);
  RunnerConfig forced = cfg;
  forced.overwrite = true;
  EXPECT_TRUE(run_campaign(campaign_, kCampaignText, forced).completed);
}

TEST_F(EngineRunnerTest, TruncatedArtifactIsRejected) {
  const std::string leaf = "truncated.jsonl";
  RunnerConfig cfg = config(leaf, 1);
  cfg.halt_after = 10;
  EXPECT_FALSE(run_campaign(campaign_, kCampaignText, cfg).completed);
  // Corrupt the artifact below the journalled offset.
  std::filesystem::resize_file(path(leaf), 10);
  try {
    static_cast<void>(resume_campaign(campaign_, kCampaignText, cfg));
    FAIL() << "resume accepted a corrupt artifact";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("shorter than its checkpoint"), std::string::npos);
  }
}

TEST_F(EngineRunnerTest, HeaderRecordsHostMetadataAndSummaryAggregates) {
  const RunnerConfig cfg = config("artifact.jsonl", 2);
  const RunReport report = run_campaign(campaign_, kCampaignText, cfg);
  EXPECT_TRUE(report.completed);

  const JsonlFile file = read_jsonl(cfg.output_path);
  EXPECT_EQ(file.header.at("format").as_string(), "bbng-jsonl");
  EXPECT_EQ(file.header.at("campaign").as_string(), "runner_probe");
  EXPECT_EQ(file.header.at("spec_fingerprint").as_string(), spec_fingerprint(kCampaignText));
  EXPECT_EQ(file.header.at("total_jobs").as_uint(), campaign_.num_jobs());
  const JsonValue& host = file.header.at("host");
  // host_threads is pinned to the machine's hardware concurrency — and only
  // that. The runner's own thread count (cfg.threads = 2 here) must never
  // leak into the header: artifacts are byte-identical at any thread count,
  // so the header can only record machine facts, not run configuration.
  // Clamped to ≥ 1 because hardware_concurrency() may return 0 ("not
  // computable") — a zero-thread host would be nonsense metadata.
  EXPECT_TRUE(host.at("host_threads").is_int());
  EXPECT_EQ(host.at("host_threads").as_uint(),
            static_cast<std::uint64_t>(
                std::max(1U, std::thread::hardware_concurrency())));
  EXPECT_FALSE(host.at("compiler").as_string().empty());
  EXPECT_FALSE(host.at("build_type").as_string().empty());
  EXPECT_FALSE(host.at("git_sha").as_string().empty());
  ASSERT_EQ(file.records.size(), campaign_.num_jobs());
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    EXPECT_EQ(file.records[i].at("job").as_uint(), i);  // commit order == job order
  }

  const JsonValue summary = parse_json(read_file(summary_path_for(cfg.output_path)));
  // The atomic tmp+rename summary write must not leave its tmp file behind.
  EXPECT_FALSE(std::filesystem::exists(summary_path_for(cfg.output_path) + ".tmp"));
  EXPECT_EQ(summary.at("jobs").as_uint(), campaign_.num_jobs());
  ASSERT_EQ(summary.at("scenarios").items().size(), 2u);
  const JsonValue& dyn = summary.at("scenarios").items()[0];
  EXPECT_EQ(dyn.at("name").as_string(), "dyn");
  EXPECT_EQ(dyn.at("jobs").as_uint(), 20u);
  EXPECT_EQ(dyn.at("numbers").at("rounds").at("count").as_uint(), 20u);
  // converged is a bool field: counted, not averaged.
  EXPECT_LE(dyn.at("bool_true_counts").at("converged").as_uint(), 20u);
  // Numeric aggregates carry a bootstrap CI bracketing the mean: bare means
  // mislead at campaign sample sizes.
  const JsonValue& rounds = dyn.at("numbers").at("rounds");
  EXPECT_LE(rounds.at("ci95_lower").as_double(), rounds.at("mean").as_double());
  EXPECT_GE(rounds.at("ci95_upper").as_double(), rounds.at("mean").as_double());
  EXPECT_GE(rounds.at("ci95_lower").as_double(), rounds.at("min").as_double());
  EXPECT_LE(rounds.at("ci95_upper").as_double(), rounds.at("max").as_double());
}

/// `number` as the summary writes it, parsed back.
double as_written(double number) {
  std::ostringstream os;
  JsonWriter writer(os, /*pretty=*/false);
  writer.value(number);
  return parse_json(os.str()).as_double();
}

TEST_F(EngineRunnerTest, SummaryIntervalsMatchPerFieldBootstrapAcrossCounts) {
  // Fields of one scenario with different counts: an obs counter missing
  // from some records, a field only some records carry, and a scenario past
  // the bootstrap cap, whose fields take the normal approximation. Each
  // bootstrapped interval must equal the reference bootstrap_mean_ci of that
  // field alone.
  const std::string jsonl = path("counts.jsonl");
  {
    std::ofstream out(jsonl, std::ios::binary);
    out << R"({"campaign":"counts","spec_fingerprint":"f","host":{"compiler":"c"}})" << '\n';
    Rng rng(11);
    const auto record = [&](const std::string& scenario, std::uint64_t job) {
      std::ostringstream os;
      JsonWriter writer(os, /*pretty=*/false);
      writer.begin_object().field("job", job).field("scenario", scenario);
      writer.field("cost", rng.next_double() * 7.3 - 2.0);
      writer.field("moves", rng.next_below(9));
      if (job % 3 != 0) writer.field("gap", -rng.next_double());
      writer.key("obs").begin_object().field("solver.swap.solves", rng.next_below(4));
      if (job % 5 == 1) writer.field("solver.swap.evaluated", rng.next_below(1000));
      writer.end_object().end_object();
      out << os.str() << '\n';
    };
    for (std::uint64_t job = 0; job < 40; ++job) record("small", job);
    for (std::uint64_t job = 0; job < 10'001; ++job) record("large", job);
  }
  write_summary_file(jsonl, path("counts.summary.json"));

  const JsonlFile file = read_jsonl(jsonl);
  const JsonValue summary = parse_json(read_file(path("counts.summary.json")));
  std::size_t bootstrapped = 0;
  std::size_t approximated = 0;
  for (const JsonValue& scenario : summary.at("scenarios").items()) {
    for (const auto& [key, stats] : scenario.at("numbers").members()) {
      // The field's values, read back the way the summary reads them.
      // An obs counter a record leaves out reads 0; any other absent field
      // is skipped.
      std::vector<double> values;
      for (const JsonValue& rec : file.records) {
        if (rec.at("scenario").as_string() != scenario.at("name").as_string()) continue;
        const bool obs = key.rfind("obs.", 0) == 0;
        const JsonValue& holder = obs ? rec.at("obs") : rec;
        const std::string member = obs ? key.substr(4) : key;
        if (const JsonValue* value = holder.find(member)) {
          values.push_back(value->as_double());
        } else if (obs) {
          values.push_back(0.0);
        }
      }
      ASSERT_EQ(stats.at("count").as_uint(), values.size()) << key;
      double lower = 0;
      double upper = 0;
      if (values.size() <= 10'000) {
        const BootstrapCi ci = bootstrap_mean_ci(values);
        lower = ci.lower;
        upper = ci.upper;
        ++bootstrapped;
      } else {
        const Summary moments = summarize(values);
        const double half = 1.959963984540054 * moments.stddev /
                            std::sqrt(static_cast<double>(moments.count));
        lower = moments.mean - half;
        upper = moments.mean + half;
        ++approximated;
      }
      EXPECT_EQ(stats.at("ci95_lower").as_double(), as_written(lower)) << key;
      EXPECT_EQ(stats.at("ci95_upper").as_double(), as_written(upper)) << key;
    }
  }
  // Bootstrapped: all five fields of "small", and the gap field of "large"
  // (6,667 values). Approximated: the other four fields of "large" (10,001
  // values each, the evaluated counter's 8,001 absences read as 0).
  EXPECT_EQ(bootstrapped, 6u);
  EXPECT_EQ(approximated, 4u);
}

TEST(SummaryFold, AnAbsentObsCounterReadsZero) {
  // Obs blocks list only nonzero deltas. A counter that fires in one of
  // three records must summarise over all three: the records before its
  // first appearance and the ones after it each read 0.
  const std::filesystem::path summary_path =
      std::filesystem::path(::testing::TempDir()) / "bbng_absent_counter.summary.json";
  SummaryFold fold;
  fold.add_line(R"({"campaign":"absent","spec_fingerprint":"f","host":{}})");
  fold.add_line(R"({"job":0,"scenario":"s","cost":1,"obs":{"first":3}})");
  fold.add_line(R"({"job":1,"scenario":"s","cost":2,"obs":{"middle":6}})");
  fold.add_line(R"({"job":2,"scenario":"s","cost":3,"obs":{"last":9}})");
  fold.write(summary_path.string());
  const JsonValue summary = parse_json(read_file(summary_path.string()));
  std::filesystem::remove(summary_path);

  const JsonValue& scenario = summary.at("scenarios").items().at(0);
  EXPECT_EQ(scenario.at("jobs").as_uint(), 3u);
  const JsonValue& numbers = scenario.at("numbers");
  ASSERT_EQ(numbers.members().size(), 4u);
  for (const auto& [counter, value] : {std::pair{"obs.first", 3.0}, std::pair{"obs.middle", 6.0},
                                       std::pair{"obs.last", 9.0}}) {
    const JsonValue& stats = numbers.at(counter);
    EXPECT_EQ(stats.at("count").as_uint(), 3u) << counter;
    EXPECT_EQ(stats.at("min").as_double(), 0.0) << counter;
    EXPECT_EQ(stats.at("max").as_double(), value) << counter;
    EXPECT_EQ(stats.at("median").as_double(), 0.0) << counter;
    EXPECT_EQ(stats.at("mean").as_double(), as_written(value / 3)) << counter;
  }
}

TEST_F(EngineRunnerTest, ProgressGoesToStderrAndNeverTheArtifact) {
  const std::string reference = reference_bytes();
  RunnerConfig cfg = config("progress.jsonl", 2);
  cfg.progress = true;
  cfg.progress_interval_seconds = 0;  // report after every window
  ::testing::internal::CaptureStderr();
  const RunReport report = run_campaign(campaign_, kCampaignText, cfg);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(report.completed);
  EXPECT_NE(stderr_text.find("progress:"), std::string::npos) << stderr_text;
  EXPECT_NE(stderr_text.find("eta"), std::string::npos) << stderr_text;
  // Progress must not perturb the artifact bytes.
  EXPECT_EQ(read_file(cfg.output_path), reference);
}

TEST_F(EngineRunnerTest, FirstProgressWindowPrintsUnknownEtaThenExtrapolates) {
  RunnerConfig cfg = config("progress_eta.jsonl", 2);
  cfg.progress = true;
  cfg.progress_interval_seconds = 0;  // report after every job
  cfg.window = 7;                     // 4 commit windows across the 28 jobs
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(run_campaign(campaign_, kCampaignText, cfg).completed);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();

  std::vector<std::string> lines;
  std::istringstream stream(stderr_text);
  for (std::string line; std::getline(stream, line);) {
    if (line.rfind("progress:", 0) == 0) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u) << stderr_text;
  // Before any window has committed there is no completion rate to
  // extrapolate: every first-window tick must say `eta ?` instead of
  // dividing a near-zero elapsed time into an absurd estimate.
  EXPECT_NE(lines.front().find("eta ?"), std::string::npos) << lines.front();
  // Once a window has committed, the ETA becomes a numeric extrapolation
  // (the "s" suffix of the seconds formatter, never "?").
  bool saw_numeric_eta = false;
  for (const std::string& line : lines) {
    const std::size_t at = line.find("eta ");
    ASSERT_NE(at, std::string::npos) << line;
    if (line[at + 4] != '?') {
      saw_numeric_eta = true;
      EXPECT_EQ(line.back(), 's') << line;
    }
  }
  EXPECT_TRUE(saw_numeric_eta) << stderr_text;
}

TEST_F(EngineRunnerTest, CompletionWritesAHostSidecarWithPeakRss) {
  const RunnerConfig cfg = config("sidecar.jsonl", 2);
  EXPECT_TRUE(run_campaign(campaign_, kCampaignText, cfg).completed);

  const std::string sidecar_path = obs_host_path_for(cfg.output_path);
  EXPECT_EQ(sidecar_path, cfg.output_path + ".obs_host.json");
  const JsonValue sidecar = parse_json(read_file(sidecar_path));
  EXPECT_EQ(sidecar.at("format").as_string(), "bbng-obs-host");
  EXPECT_EQ(sidecar.at("campaign").as_string(), "runner_probe");
  EXPECT_GT(sidecar.at("elapsed_seconds").as_double(), 0.0);

  // peak_rss_kb lives in the sidecar's host block, NOT the artifact header:
  // VmHWM differs between a straight run and a kill/resume pair, and the
  // header must stay byte-identical across both (the tests above prove the
  // artifact does — this proves the memory figure still gets recorded).
  const JsonValue& host = sidecar.at("host");
  EXPECT_GT(host.at("peak_rss_kb").as_uint(), 0u);
  EXPECT_GT(host.at("host_threads").as_uint(), 0u);
  const JsonlFile artifact = read_jsonl(cfg.output_path);
  EXPECT_EQ(artifact.header.at("host").find("peak_rss_kb"), nullptr)
      << "the deterministic header must not carry machine-varying memory";

  // A completed run always timed its windows and jobs.
  const JsonValue& histograms = sidecar.at("histograms");
  for (const char* name : {"runner.window", "runner.commit", "engine.job"}) {
    const JsonValue* hist = histograms.find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GT(hist->at("count").as_uint(), 0u) << name;
    EXPECT_GE(hist->at("p90_us").as_double(), hist->at("p50_us").as_double()) << name;
    EXPECT_GE(hist->at("p99_us").as_double(), hist->at("p90_us").as_double()) << name;
    EXPECT_GE(static_cast<double>(hist->at("max_us").as_uint()),
              hist->at("p50_us").as_double())
        << name;
  }
  const JsonValue* rss = sidecar.at("gauges").find("mem.vm_rss_kb");
  ASSERT_NE(rss, nullptr);
  EXPECT_GE(rss->at("samples").as_uint(), 1u) << "the final stop() sample at minimum";
  EXPECT_GT(rss->at("last").as_double(), 0.0);
}

TEST_F(EngineRunnerTest, HaltedRunsLeaveNoSidecarUntilCompletion) {
  RunnerConfig cfg = config("halted.jsonl", 2);
  cfg.halt_after = 5;
  EXPECT_FALSE(run_campaign(campaign_, kCampaignText, cfg).completed);
  EXPECT_FALSE(std::filesystem::exists(obs_host_path_for(cfg.output_path)))
      << "telemetry is summarised at completion, like the summary itself";
  const RunnerConfig resume_cfg = config("halted.jsonl", 2);
  EXPECT_TRUE(resume_campaign(campaign_, kCampaignText, resume_cfg).completed);
  EXPECT_TRUE(std::filesystem::exists(obs_host_path_for(cfg.output_path)));
}

// One campaign over every task that reads the evaluator knobs. `@` marks
// where each scenario's params take the knob under test.
const char* kKnobCampaignText = R"({
  "name": "evaluator_knobs",
  "base_seed": 5,
  "scenarios": [
    {"name": "dyn_br", "task": "dynamics", "version": "sum",
     "budgets": {"family": "random"}, "grid": {"n": [8, 10], "density": [1.5]},
     "seeds": {"begin": 0, "end": 4}, "params": {@, "max_rounds": 50, "exact_limit": 0}},
    {"name": "dyn_swap", "task": "dynamics", "version": "max",
     "budgets": {"family": "random"}, "grid": {"n": [8, 10], "density": [1.5]},
     "seeds": {"begin": 0, "end": 4},
     "params": {@, "max_rounds": 50, "policy": "first_improving_swap"}},
    {"name": "swap_eq", "task": "swap_equilibrium", "version": "sum",
     "budgets": {"family": "random"}, "grid": {"n": [9]}, "seeds": {"begin": 0, "end": 6},
     "params": {@}},
    {"name": "poa", "task": "poa", "version": "max",
     "budgets": {"family": "tree"}, "grid": {"n": [8]}, "seeds": {"begin": 0, "end": 4},
     "params": {@, "max_rounds": 50, "exact_limit": 0}},
    {"name": "audit", "task": "nash_audit", "version": "sum",
     "budgets": {"family": "random"}, "grid": {"n": [8], "density": [1.5]},
     "seeds": {"begin": 0, "end": 4}, "params": {@, "solver": "portfolio"}},
    {"name": "churn", "task": "churn", "version": "sum",
     "budgets": {"family": "tree"}, "grid": {"n": [9]}, "seeds": {"begin": 0, "end": 4},
     "params": {@, "solver": "swap",
                "churn": {"events": 20, "checkpoint_every": 10, "mode": "track",
                          "max_budget": 3,
                          "weights": {"join": 2, "leave": 1, "grow": 4, "shrink": 4,
                                      "perturb": 1}}}}
  ]
})";

/// The job records of a finished artifact (the header, which fingerprints
/// the spec text, dropped).
std::vector<std::string> job_records(const std::string& artifact) {
  std::vector<std::string> records;
  std::istringstream lines(artifact);
  std::string line;
  std::getline(lines, line);
  while (std::getline(lines, line)) records.push_back(line);
  return records;
}

TEST_F(EngineRunnerTest, EvaluatorKnobsDoNotChangeTheRecords) {
  // `incremental` and `graph_core` only pick the evaluator behind each move
  // set (greedy, swap descent, the first-improving swap scan, churn's trim)
  // above kTableEvaluatorLimit; every graph here is smaller, so every run
  // scores on TableEvaluator and the records are byte-identical under all
  // three choices, work stats included: bfs_avoided reads 0 and no delta
  // oracle publishes bfs.dynamic.* counters.
  const auto run = [this](const std::string& leaf, const std::string& knob) {
    std::string text = kKnobCampaignText;
    for (std::size_t at = text.find('@'); at != std::string::npos; at = text.find('@')) {
      text.replace(at, 1, knob);
    }
    const RunnerConfig cfg = config(leaf, 1);
    const RunReport report = run_campaign(parse_campaign_spec(text), text, cfg);
    EXPECT_TRUE(report.completed);
    return job_records(read_file(cfg.output_path));
  };
  const std::vector<std::string> csr = run("csr.jsonl", R"("graph_core": "csr")");
  const std::vector<std::string> vector = run("vector.jsonl", R"("graph_core": "vector")");
  const std::vector<std::string> naive = run("naive.jsonl", R"("incremental": false)");
  ASSERT_EQ(csr.size(), 34u);
  EXPECT_EQ(vector, csr);
  EXPECT_EQ(naive, csr);

  static const std::regex kAvoided(R"re("[a-z_.]*bfs_avoided":(\d+))re");
  std::size_t avoided_members = 0;
  for (std::size_t i = 0; i < csr.size(); ++i) {
    const std::string& record = csr[i];
    EXPECT_EQ(record.find("bfs.dynamic."), std::string::npos) << "record " << i;
    for (auto it = std::sregex_iterator(record.begin(), record.end(), kAvoided);
         it != std::sregex_iterator(); ++it) {
      ++avoided_members;
      EXPECT_EQ((*it)[1].str(), "0") << "record " << i;
    }
  }
  EXPECT_GT(avoided_members, 0u) << "the campaign must report bfs_avoided somewhere";
}

}  // namespace
}  // namespace bbng
