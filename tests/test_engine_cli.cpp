// End-to-end error-path tests for the bbng_engine CLI: each misuse must
// exit non-zero with a message that names the offence (unknown subcommand,
// missing spec file, malformed spec, schema violations, missing required
// options), and the happy informational paths must exit zero. The binary
// path is injected by CMake as BBNG_ENGINE_BINARY.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace bbng {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

/// Run the engine CLI with `args`, capturing both streams.
CliResult run_cli(const std::string& args) {
  const std::string command = std::string(BBNG_ENGINE_BINARY) + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string write_temp_spec(const std::string& name, const std::string& contents) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / ("bbng_cli_test_" + name + ".json");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  return path.string();
}

TEST(EngineCli, UnknownSubcommandNamesItAndFails) {
  const CliResult result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown subcommand"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("frobnicate"), std::string::npos) << result.output;
}

TEST(EngineCli, NoArgumentsPrintsUsageAndFails) {
  const CliResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos) << result.output;
}

TEST(EngineCli, MissingSpecFileNamesThePath) {
  const CliResult result = run_cli("validate --spec /nonexistent/bbng_no_such_spec.json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("/nonexistent/bbng_no_such_spec.json"), std::string::npos)
      << result.output;
}

TEST(EngineCli, MalformedJsonReportsThePosition) {
  const std::string path = write_temp_spec("malformed", "{\"name\": \"x\", }");
  const CliResult result = run_cli("validate --spec " + path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("JSON parse error"), std::string::npos) << result.output;
  std::filesystem::remove(path);
}

TEST(EngineCli, SchemaViolationNamesTheOffendingKey) {
  const std::string path = write_temp_spec("unknown_key", R"({
    "name": "probe", "task": "dynamics", "version": "sum",
    "budgets": {"family": "tree"}, "grid": {"n": [6]},
    "seeds": {"begin": 0, "end": 1}, "typo_key": true})");
  const CliResult result = run_cli("validate --spec " + path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("typo_key"), std::string::npos) << result.output;
  std::filesystem::remove(path);
}

TEST(EngineCli, UnknownSolverNameIsRejectedAtValidateTime) {
  const std::string path = write_temp_spec("bad_solver", R"({
    "name": "probe", "task": "nash_audit", "version": "sum",
    "budgets": {"family": "tree"}, "grid": {"n": [6]},
    "seeds": {"begin": 0, "end": 1},
    "params": {"solver": "quantum_annealer"}})");
  const CliResult result = run_cli("validate --spec " + path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("quantum_annealer"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("exact_bb"), std::string::npos) << result.output;
  std::filesystem::remove(path);
}

TEST(EngineCli, RunWithoutRequiredOptionsFails) {
  const CliResult result = run_cli("run");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--spec and --output are required"), std::string::npos)
      << result.output;
}

TEST(EngineCli, ListTasksAndListSolversSucceed) {
  const CliResult tasks = run_cli("list-tasks");
  EXPECT_EQ(tasks.exit_code, 0);
  EXPECT_NE(tasks.output.find("nash_audit"), std::string::npos) << tasks.output;
  const CliResult solvers = run_cli("list-solvers");
  EXPECT_EQ(solvers.exit_code, 0);
  EXPECT_NE(solvers.output.find("exact_bb"), std::string::npos) << solvers.output;
  EXPECT_NE(solvers.output.find("portfolio"), std::string::npos) << solvers.output;
}

TEST(EngineCli, QuietSuppressesProgressLines) {
  const std::string path = write_temp_spec("quiet_probe", R"({
    "name": "quiet_probe", "task": "swap_equilibrium", "version": "sum",
    "generator": "star", "grid": {"n": [6]}, "seeds": {"begin": 0, "end": 2}})");
  const std::filesystem::path artifact =
      std::filesystem::temp_directory_path() / "bbng_cli_quiet_probe.jsonl";
  std::filesystem::remove(artifact);
  const CliResult result =
      run_cli("run --spec " + path + " --output " + artifact.string() + " --quiet");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.find("progress:"), std::string::npos) << result.output;
  std::filesystem::remove(path);
  std::filesystem::remove(artifact);
  std::filesystem::remove(artifact.string() + ".ckpt.json");
  std::filesystem::remove(artifact.string() + ".summary.json");
}

TEST(EngineCli, TraceReportAndNoObsWorkEndToEnd) {
  const std::string path = write_temp_spec("obs_probe", R"({
    "name": "obs_probe", "task": "nash_audit", "version": "sum",
    "budgets": {"family": "tree"}, "grid": {"n": [6]},
    "seeds": {"begin": 0, "end": 3},
    "params": {"solver": "exact_bb", "solver_budget": {"node_limit": 200000}}})");
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string artifact = (dir / "bbng_cli_obs_probe.jsonl").string();
  const std::string trace = (dir / "bbng_cli_obs_probe.trace.json").string();
  std::filesystem::remove(artifact);
  std::filesystem::remove(trace);

  const CliResult run = run_cli("run --spec " + path + " --output " + artifact +
                                " --quiet --trace " + trace);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("trace:"), std::string::npos) << run.output;
  EXPECT_TRUE(std::filesystem::exists(trace));

  // report prints a per-scenario per-counter breakdown; CSV mode carries
  // the same header for downstream tooling.
  const CliResult report = run_cli("report --artifact " + artifact);
  const CliResult report_csv = run_cli("report --artifact " + artifact + " --csv");
  const CliResult missing = run_cli("report");
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("--artifact is required"), std::string::npos);

  // --no-obs writes verdict-only records; report then refuses
  // loudly instead of printing an empty table.
  const std::string bare = (dir / "bbng_cli_obs_probe_bare.jsonl").string();
  std::filesystem::remove(bare);
  const CliResult no_obs =
      run_cli("run --spec " + path + " --output " + bare + " --quiet --no-obs");
  EXPECT_EQ(no_obs.exit_code, 0) << no_obs.output;
  const CliResult bare_report = run_cli("report --artifact " + bare);
  // With BBNG_OBS=OFF builds even the obs-on artifact has no blocks, so
  // derive the expectation from what the first report actually found.
  if (report.exit_code == 0) {
    EXPECT_NE(report.output.find("counter"), std::string::npos) << report.output;
    EXPECT_NE(report.output.find("bfs.multi.row_scans"), std::string::npos) << report.output;
    EXPECT_EQ(report_csv.exit_code, 0);
    EXPECT_NE(report_csv.output.find("scenario,task,counter"), std::string::npos)
        << report_csv.output;
    EXPECT_EQ(bare_report.exit_code, 1);
    EXPECT_NE(bare_report.output.find("no obs blocks"), std::string::npos)
        << bare_report.output;
  } else {
    EXPECT_EQ(report.exit_code, 1);
    EXPECT_NE(report.output.find("no obs blocks"), std::string::npos) << report.output;
  }

  for (const std::string& file : {artifact, bare}) {
    std::filesystem::remove(file);
    std::filesystem::remove(file + ".ckpt.json");
    std::filesystem::remove(file + ".summary.json");
  }
  std::filesystem::remove(trace);
  std::filesystem::remove(path);
}

TEST(EngineCli, ReportMergesAHandcraftedHostSidecarVerbatim) {
  // A handcrafted artifact + sidecar make the merged report fully
  // deterministic, so the CSV output can be compared as a golden string.
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string artifact = (dir / "bbng_cli_golden.jsonl").string();
  {
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out << R"({"format": "bbng-jsonl", "campaign": "golden"})" << "\n"
        << R"({"job": 0, "scenario": "s1", "task": "dynamics", "obs": {"a.b": 10}})" << "\n"
        << R"({"job": 1, "scenario": "s1", "task": "dynamics", "obs": {"a.b": 32}})" << "\n";
  }
  {
    std::ofstream out(artifact + ".obs_host.json", std::ios::binary | std::ios::trunc);
    out << R"({
      "format": "bbng-obs-host", "format_version": 1, "campaign": "golden",
      "elapsed_seconds": 1.5, "obs_compiled": true,
      "host": {"host_threads": 1, "compiler": "x", "build_type": "Release",
               "git_sha": "abc", "peak_rss_kb": 12345},
      "gauges": {"mem.vm_rss_kb": {"last": 100.0, "min": 50.0, "max": 120.0, "samples": 4}},
      "histograms": {"engine.job": {"count": 2, "sum_us": 300, "max_us": 200,
                                    "p50_us": 100.0, "p90_us": 180.0, "p99_us": 198.0}}
    })" << "\n";
  }

  const CliResult csv = run_cli("report --artifact " + artifact + " --csv");
  EXPECT_EQ(csv.exit_code, 0) << csv.output;
  EXPECT_EQ(csv.output,
            "scenario,task,counter,jobs,total,mean_per_job\n"
            "s1,dynamics,a.b,2,42,21.000\n"
            "\n"
            "phase,count,sum_us,max_us,p50_us,p90_us,p99_us\n"
            "engine.job,2,300,200,100.0,180.0,198.0\n"
            "\n"
            "gauge,last,min,max,samples\n"
            "mem.vm_rss_kb,100.000,50.000,120.000,4\n");

  // Grid mode shows the same merge with the sidecar named in the titles,
  // and peak_rss_kb surfaced on the gauge table.
  const CliResult grid = run_cli("report --artifact " + artifact);
  EXPECT_EQ(grid.exit_code, 0) << grid.output;
  EXPECT_NE(grid.output.find("latency histograms: " + artifact + ".obs_host.json"),
            std::string::npos)
      << grid.output;
  EXPECT_NE(grid.output.find("peak_rss_kb 12345"), std::string::npos) << grid.output;

  // Without the sidecar the report is just the counter table — reports on
  // pre-telemetry artifacts keep working unchanged.
  std::filesystem::remove(artifact + ".obs_host.json");
  const CliResult bare = run_cli("report --artifact " + artifact + " --csv");
  EXPECT_EQ(bare.exit_code, 0) << bare.output;
  EXPECT_EQ(bare.output,
            "scenario,task,counter,jobs,total,mean_per_job\n"
            "s1,dynamics,a.b,2,42,21.000\n");

  std::filesystem::remove(artifact);
}

TEST(EngineCli, ReportCountsEveryJobOfTheScenarioForACounterThatFiresInOne) {
  // A block lists only nonzero deltas, so `rare` is absent from two of the
  // three jobs. Its row still counts all three jobs, like the summary's
  // `count`, and its mean divides by three.
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string artifact = (dir / "bbng_cli_rare_counter.jsonl").string();
  {
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out << R"({"format": "bbng-jsonl", "campaign": "rare"})" << "\n"
        << R"({"job": 0, "scenario": "s1", "task": "churn", "obs": {"a.all": 1}})" << "\n"
        << R"({"job": 1, "scenario": "s1", "task": "churn", "obs": {"a.all": 1, "a.rare": 7}})"
        << "\n"
        << R"({"job": 2, "scenario": "s1", "task": "churn", "obs": {"a.all": 1}})" << "\n";
  }
  const CliResult csv = run_cli("report --artifact " + artifact + " --csv");
  EXPECT_EQ(csv.exit_code, 0) << csv.output;
  EXPECT_EQ(csv.output,
            "scenario,task,counter,jobs,total,mean_per_job\n"
            "s1,churn,a.all,3,3,1.000\n"
            "s1,churn,a.rare,3,7,2.333\n");
  std::filesystem::remove(artifact);
}

}  // namespace
}  // namespace bbng
