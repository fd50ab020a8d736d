// bbng_engine — the scenario engine's command-line front end.
//
//   bbng_engine validate   --spec examples/specs/tree_sum.json
//   bbng_engine run        --spec ... --output campaign.jsonl [--threads 0]
//   bbng_engine resume     --spec ... --output campaign.jsonl
//   bbng_engine report     --artifact campaign.jsonl [--csv]
//   bbng_engine list-tasks
//   bbng_engine list-solvers
//
// `run` executes a declarative campaign sharded across a thread pool and
// streams one JSON record per game instance into the output JSONL (header
// line first, then jobs in id order), checkpointing a manifest alongside.
// One more thread folds each committed window into the `.summary.json`
// while later windows run.
// While running it reports progress (jobs done/total, ETA, cumulative
// solver searches and BFS row scans) to stderr so long campaigns are not
// silent; `--quiet` suppresses that (stdout and the artifact are byte-clean
// either way). `resume` continues an interrupted campaign from its
// manifest; the completed artifact is byte-identical to an uninterrupted
// run at any thread count. `--halt-after N` simulates a kill after N
// committed jobs (used by CI to exercise the resume path). `--trace <file>`
// writes a Perfetto-loadable Chrome-trace of the run. The spec's `"obs"` key
// (default true) is the one switch for the per-job `obs` counter blocks, the
// only home of the work counts; `"obs": false` leaves identity and verdict
// fields only, and the fingerprint keeps a resume from changing it.
// `report` re-reads a finished artifact and prints per-scenario per-counter
// work breakdowns from those blocks, plus latency percentiles and host
// gauges from the run's `.obs_host.json` sidecar when present.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "engine/sinks.hpp"
#include "engine/spec.hpp"
#include "engine/tasks.hpp"
#include "obs/trace.hpp"
#include "solver/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int usage(int code) {
  std::fputs(
      "usage: bbng_engine <run|resume|report|validate|list-tasks|list-solvers> [options]\n"
      "  run          execute a campaign spec into a JSONL artifact\n"
      "  resume       continue an interrupted campaign from its checkpoint\n"
      "  report       per-scenario counter breakdown of an artifact's obs blocks\n"
      "  validate     parse + validate a spec, print the job budget\n"
      "  list-tasks   describe the available task kinds\n"
      "  list-solvers describe the registered best-response solver backends\n"
      "options are per subcommand; see `bbng_engine <subcommand> --help`.\n",
      code == 0 ? stdout : stderr);
  return code;
}

void print_campaign(const bbng::CampaignSpec& campaign) {
  std::cout << "campaign \"" << campaign.name << "\": " << campaign.scenarios.size()
            << " scenario(s), " << campaign.num_jobs() << " job(s), base_seed "
            << campaign.base_seed << "\n";
  for (const auto& scenario : campaign.scenarios) {
    std::cout << "  " << scenario.name << ": task " << to_string(scenario.task) << ", "
              << to_string(scenario.version) << ", generator "
              << to_string(scenario.generator) << ", " << scenario.num_jobs() << " job(s)\n";
  }
}

void print_report(const char* verb, const bbng::RunReport& report,
                  const bbng::RunnerConfig& config) {
  std::cout << verb << ": committed " << report.committed << "/" << report.total_jobs
            << " job(s) (" << report.executed << " executed now, "
            << report.committed_before << " inherited), " << report.checkpoints
            << " checkpoint(s), " << report.seconds << " s\n";
  if (report.completed) {
    std::cout << "artifact: " << config.output_path << "\n";
    if (config.write_summary) {
      std::cout << "summary:  " << bbng::summary_path_for(config.output_path) << "\n";
    }
    std::cout << "host:     " << bbng::obs_host_path_for(config.output_path) << "\n";
  } else {
    std::cout << "halted before completion; continue with: bbng_engine resume --spec <spec> "
              << "--output " << config.output_path << "\n";
  }
}

int run_or_resume(bool resume, int argc, const char** argv) {
  bbng::Cli cli(resume ? "bbng_engine resume" : "bbng_engine run",
                resume ? "continue an interrupted campaign from its checkpoint manifest"
                       : "execute a campaign spec into a JSONL artifact");
  const auto spec_path = cli.add_string("spec", "", "campaign spec (JSON)");
  const auto output = cli.add_string("output", "", "output JSONL artifact path");
  const auto threads = cli.add_int(
      "threads", 1,
      "job pool width; 0 = hardware concurrency (the summary folds on one more thread)");
  const auto checkpoint_every = cli.add_int("checkpoint-every", 64,
                                            "manifest cadence in committed jobs");
  const auto window = cli.add_int("window", 0, "in-flight job bound; 0 = 4x pool width");
  const auto halt_after = cli.add_int("halt-after", 0,
                                      "simulate a kill after N total committed jobs");
  const auto force = cli.add_flag("force", "overwrite an existing artifact (run only)");
  const auto no_summary = cli.add_flag("no-summary", "skip the .summary.json aggregation");
  const auto quiet = cli.add_flag("quiet", "suppress the periodic progress lines on stderr");
  const auto trace_path = cli.add_string(
      "trace", "", "write a Perfetto-loadable Chrome-trace of the run to this file");
  cli.parse(argc, argv);

  if (spec_path->empty() || output->empty()) {
    std::cerr << "error: --spec and --output are required\n" << cli.usage();
    return 2;
  }
  // Guard the int→unsigned conversions: a negative value must not wrap into
  // a 4-billion-thread pool or a 2^64 job window.
  const auto checked = [](std::int64_t value, const char* name) {
    if (value < 0) {
      throw std::invalid_argument(std::string("--") + name + " must be non-negative");
    }
    return static_cast<std::uint64_t>(value);
  };
  if (*threads > 4096) throw std::invalid_argument("--threads larger than 4096 is implausible");
  std::string spec_text;
  const bbng::CampaignSpec campaign = bbng::load_campaign_spec(*spec_path, &spec_text);

  bbng::RunnerConfig config;
  config.output_path = *output;
  config.threads = static_cast<unsigned>(checked(*threads, "threads"));
  config.checkpoint_every = checked(*checkpoint_every, "checkpoint-every");
  config.window = checked(*window, "window");
  config.halt_after = checked(*halt_after, "halt-after");
  config.overwrite = *force;
  config.write_summary = !*no_summary;
  config.progress = !*quiet;
  if (!trace_path->empty()) bbng::obs::trace::begin();

  const bbng::RunReport report = resume
                                     ? bbng::resume_campaign(campaign, spec_text, config)
                                     : bbng::run_campaign(campaign, spec_text, config);
  if (!trace_path->empty()) {
    bbng::obs::trace::write_file(*trace_path);
    std::cout << "trace:    " << *trace_path << "\n";
  }
  print_report(resume ? "resume" : "run", report, config);
  return 0;
}

/// Merge the `<artifact>.obs_host.json` sidecar, when one exists, into the
/// report: a latency table (histogram percentiles) and a gauge table after
/// the counter table. Tables are blank-line separated so CSV consumers can
/// split on the first empty line (scripts/check_obs_baseline.py does).
void print_host_telemetry(const std::string& artifact, bool csv) {
  const std::string sidecar_path = bbng::obs_host_path_for(artifact);
  std::ifstream in(sidecar_path, std::ios::binary);
  if (!in) return;  // pre-telemetry artifact; counters alone are the report
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const bbng::JsonValue root = bbng::parse_json(buffer.str());

  const bbng::JsonValue& histograms = root.at("histograms");
  if (!histograms.members().empty()) {
    bbng::Table latency({"phase", "count", "sum_us", "max_us", "p50_us", "p90_us", "p99_us"});
    latency.set_title("latency histograms: " + sidecar_path);
    for (const auto& [name, hist] : histograms.members()) {
      latency.new_row()
          .add(name)
          .add(hist.at("count").as_uint())
          .add(hist.at("sum_us").as_uint())
          .add(hist.at("max_us").as_uint())
          .add(hist.at("p50_us").as_double(), 1)
          .add(hist.at("p90_us").as_double(), 1)
          .add(hist.at("p99_us").as_double(), 1);
    }
    std::cout << "\n";
    latency.print(std::cout, csv);
  }

  const bbng::JsonValue& gauges = root.at("gauges");
  if (!gauges.members().empty()) {
    bbng::Table gauge_table({"gauge", "last", "min", "max", "samples"});
    gauge_table.set_title("host gauges: peak_rss_kb " +
                          std::to_string(root.at("host").at("peak_rss_kb").as_uint()));
    for (const auto& [name, gauge] : gauges.members()) {
      gauge_table.new_row()
          .add(name)
          .add(gauge.at("last").as_double())
          .add(gauge.at("min").as_double())
          .add(gauge.at("max").as_double())
          .add(gauge.at("samples").as_uint());
    }
    std::cout << "\n";
    gauge_table.print(std::cout, csv);
  }
}

/// `report` — aggregate the per-job `obs` counter blocks of a finished
/// artifact into per-scenario per-counter totals and per-job means. Fails
/// (exit 1) when the artifact carries no obs blocks at all, so CI notices a
/// run that silently lost its telemetry. When the run also left a
/// `.obs_host.json` sidecar, its latency percentiles and gauges print as
/// additional tables — one command answers both "how much work" and "how
/// long did it take".
int report_obs(int argc, const char** argv) {
  bbng::Cli cli("bbng_engine report",
                "per-scenario counter breakdown of an artifact's obs blocks");
  const auto artifact = cli.add_string("artifact", "", "campaign JSONL artifact path");
  const auto csv = cli.add_flag("csv", "emit CSV instead of an ASCII grid");
  cli.parse(argc, argv);
  if (artifact->empty()) {
    std::cerr << "error: --artifact is required\n" << cli.usage();
    return 2;
  }
  const bbng::JsonlFile file = bbng::read_jsonl(*artifact);

  // First-appearance-ordered aggregation, like the summary sink: the report
  // is as deterministic as the artifact itself.
  struct CounterRow {
    std::string scenario;
    std::string task;
    std::string counter;
    std::uint64_t total = 0;
  };
  std::vector<CounterRow> rows;
  std::vector<std::pair<std::string, std::uint64_t>> scenario_jobs;
  std::uint64_t records_with_obs = 0;
  for (const auto& record : file.records) {
    const std::string& scenario = record.at("scenario").as_string();
    const std::string& task = record.at("task").as_string();
    std::uint64_t* jobs = nullptr;
    for (auto& [name, count] : scenario_jobs) {
      if (name == scenario) jobs = &count;
    }
    if (jobs == nullptr) {
      scenario_jobs.emplace_back(scenario, 0);
      jobs = &scenario_jobs.back().second;
    }
    ++*jobs;
    const bbng::JsonValue* obs = record.find("obs");
    if (obs == nullptr) continue;
    ++records_with_obs;
    for (const auto& [counter, value] : obs->members()) {
      CounterRow* row = nullptr;
      for (auto& existing : rows) {
        if (existing.scenario == scenario && existing.counter == counter) row = &existing;
      }
      if (row == nullptr) {
        rows.push_back(CounterRow{scenario, task, counter, 0});
        row = &rows.back();
      }
      row->total += value.as_uint();
    }
  }
  if (records_with_obs == 0) {
    std::cerr << "error: " << *artifact
              << " has no obs blocks (its spec sets \"obs\": false)\n";
    return 1;
  }

  bbng::Table table({"scenario", "task", "counter", "jobs", "total", "mean_per_job"});
  table.set_title("work counters: " + file.header.at("campaign").as_string() + " (" +
                  std::to_string(records_with_obs) + " of " +
                  std::to_string(file.records.size()) + " record(s) with obs)");
  for (const CounterRow& row : rows) {
    std::uint64_t scenario_total_jobs = 0;
    for (const auto& [name, count] : scenario_jobs) {
      if (name == row.scenario) scenario_total_jobs = count;
    }
    // Jobs and mean count ALL of the scenario's jobs, not just those where
    // the counter fired: deltas() omits zeros, and a counter that fired in 3
    // of 100 jobs reads 0 in the other 97, as the summary's `count` does.
    const double mean = scenario_total_jobs == 0
                            ? 0.0
                            : static_cast<double>(row.total) /
                                  static_cast<double>(scenario_total_jobs);
    table.new_row()
        .add(row.scenario)
        .add(row.task)
        .add(row.counter)
        .add(scenario_total_jobs)
        .add(row.total)
        .add(mean);
  }
  table.print(std::cout, *csv);
  print_host_telemetry(*artifact, *csv);
  return 0;
}

int validate(int argc, const char** argv) {
  bbng::Cli cli("bbng_engine validate", "parse + validate a campaign spec");
  const auto spec_path = cli.add_string("spec", "", "campaign spec (JSON)");
  cli.parse(argc, argv);
  if (spec_path->empty()) {
    std::cerr << "error: --spec is required\n" << cli.usage();
    return 2;
  }
  print_campaign(bbng::load_campaign_spec(*spec_path));
  std::cout << "spec OK\n";
  return 0;
}

int list_tasks() {
  for (const auto& [name, description] : bbng::list_tasks()) {
    std::cout << name << "\n    " << description << "\n";
  }
  return 0;
}

int list_solvers() {
  for (const auto& [name, description] : bbng::list_solvers()) {
    std::cout << name << "\n    " << description << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, const char** argv) {
  if (argc < 2) return usage(2);
  const std::string subcommand = argv[1];
  try {
    // Each subcommand parses the remaining options itself (argv[1] takes the
    // program-name slot of its Cli).
    if (subcommand == "run") return run_or_resume(false, argc - 1, argv + 1);
    if (subcommand == "resume") return run_or_resume(true, argc - 1, argv + 1);
    if (subcommand == "report") return report_obs(argc - 1, argv + 1);
    if (subcommand == "validate") return validate(argc - 1, argv + 1);
    if (subcommand == "list-tasks") return list_tasks();
    if (subcommand == "list-solvers") return list_solvers();
    if (subcommand == "--help" || subcommand == "-h" || subcommand == "help") return usage(0);
    std::cerr << "error: unknown subcommand \"" << subcommand << "\"\n";
    return usage(2);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
