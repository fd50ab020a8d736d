// Task-adapter tests: every TaskKind emits a parseable, deterministic JSONL
// record whose fields are consistent with the underlying analysis (a star is
// swap-stable, a path audit reports diameter n−1, PoA brackets nest, …).
#include "engine/tasks.hpp"

#include <gtest/gtest.h>

#include <string>

#include "engine/jobgraph.hpp"
#include "engine/spec.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace bbng {
namespace {

CampaignSpec campaign_for(const std::string& task, const std::string& extra = "") {
  const std::string text = R"({
    "name": "probe",
    "task": ")" + task + R"(",
    "version": "sum",
    "budgets": {"family": "tree"},
    "grid": {"n": [10]},
    "seeds": {"begin": 0, "end": 3})" + extra + "}";
  return parse_campaign_spec(text);
}

JsonValue run_first_job(const CampaignSpec& campaign) {
  const std::vector<Job> jobs = expand_jobs(campaign);
  return parse_json(run_job_line(campaign, jobs[0]));
}

TEST(EngineTasks, LinesAreDeterministic) {
  for (const char* task : {"dynamics", "swap_equilibrium", "poa", "audit"}) {
    const CampaignSpec campaign = campaign_for(task);
    const std::vector<Job> jobs = expand_jobs(campaign);
    EXPECT_EQ(run_job_line(campaign, jobs[1]), run_job_line(campaign, jobs[1]))
        << "task " << task;
  }
}

TEST(EngineTasks, CommonPrefixEchoesTheJob) {
  const CampaignSpec campaign = campaign_for("dynamics");
  const std::vector<Job> jobs = expand_jobs(campaign);
  const JsonValue record = parse_json(run_job_line(campaign, jobs[2]));
  EXPECT_EQ(record.at("job").as_uint(), 2u);
  EXPECT_EQ(record.at("scenario").as_string(), "probe");
  EXPECT_EQ(record.at("task").as_string(), "dynamics");
  EXPECT_EQ(record.at("version").as_string(), "SUM");
  EXPECT_EQ(record.at("n").as_uint(), 10u);
  EXPECT_EQ(record.at("seed").as_uint(), 2u);
  // Field order is part of the byte-stability contract.
  EXPECT_EQ(record.members()[0].first, "job");
  EXPECT_EQ(record.members()[1].first, "scenario");
}

TEST(EngineTasks, DynamicsRecordIsInternallyConsistent) {
  const JsonValue record = run_first_job(campaign_for("dynamics"));
  EXPECT_TRUE(record.at("converged").is_bool());
  EXPECT_GE(record.at("evaluations").as_uint(), record.at("moves").as_uint());
  const std::uint64_t n = record.at("n").as_uint();
  if (record.at("connected").as_bool()) {
    EXPECT_LT(record.at("social_cost").as_uint(), n * n);
  } else {
    EXPECT_EQ(record.at("social_cost").as_uint(), n * n);
  }
  // A tree instance (σ = n−1) that converged must have connected (Lemma 3.1).
  if (record.at("converged").as_bool()) {
    EXPECT_TRUE(record.at("connected").as_bool());
  }
}

TEST(EngineTasks, StarIsSwapStable) {
  const std::string text = R"({
    "name": "star_probe", "task": "swap_equilibrium", "version": "sum",
    "generator": "star", "grid": {"n": [9]}, "seeds": {"begin": 0, "end": 1}})";
  const CampaignSpec campaign = parse_campaign_spec(text);
  const JsonValue record = run_first_job(campaign);
  EXPECT_TRUE(record.at("stable").as_bool());
  EXPECT_TRUE(record.at("deviator").is_null());
  EXPECT_TRUE(record.at("improvement").is_null());
}

TEST(EngineTasks, PathAuditReportsTheDiameter) {
  const std::string text = R"({
    "name": "path_probe", "task": "audit", "version": "sum",
    "generator": "path", "grid": {"n": [12]}, "seeds": {"begin": 0, "end": 1},
    "params": {"compute_connectivity": true}})";
  const CampaignSpec campaign = parse_campaign_spec(text);
  const JsonValue record = run_first_job(campaign);
  EXPECT_TRUE(record.at("connected").as_bool());
  EXPECT_EQ(record.at("social_cost").as_uint(), 11u);  // diameter of P12
  EXPECT_EQ(record.at("vertex_connectivity").as_uint(), 1u);
  EXPECT_EQ(record.at("brace_count").as_uint(), 0u);
  EXPECT_GE(record.at("max_cost").as_uint(), record.at("min_cost").as_uint());
  EXPECT_TRUE(record.at("certificate").is_string());
}

TEST(EngineTasks, PoaBracketsNest) {
  const JsonValue record = run_first_job(campaign_for("poa"));
  EXPECT_LE(record.at("opt_lower").as_uint(), record.at("opt_upper").as_uint());
  EXPECT_LE(record.at("ratio_lower").as_double(), record.at("ratio_upper").as_double());
  EXPECT_GT(record.at("ratio_upper").as_double(), 0.0);
}

TEST(EngineTasks, IncrementalFlagDoesNotChangeTheVerdict) {
  // The delta oracle is an optimisation, not a semantics change: swap
  // verification must agree bit-for-bit on stable/deviator either way.
  const CampaignSpec on = campaign_for("swap_equilibrium");
  const CampaignSpec off = campaign_for("swap_equilibrium",
                                        R"(, "params": {"incremental": false})");
  const std::vector<Job> jobs = expand_jobs(on);
  for (const Job& job : jobs) {
    const JsonValue a = parse_json(run_job_line(on, job));
    const JsonValue b = parse_json(run_job_line(off, job));
    EXPECT_EQ(a.at("stable").as_bool(), b.at("stable").as_bool());
    EXPECT_EQ(a.at("deviator").is_null(), b.at("deviator").is_null());
    if (!a.at("deviator").is_null()) {
      EXPECT_EQ(a.at("deviator").as_uint(), b.at("deviator").as_uint());
      EXPECT_EQ(a.at("improvement").as_uint(), b.at("improvement").as_uint());
    }
  }
}

TEST(EngineTasks, NashAuditRecordIsInternallyConsistent) {
  const CampaignSpec campaign = campaign_for("nash_audit");
  const std::vector<Job> jobs = expand_jobs(campaign);
  for (const Job& job : jobs) {
    const JsonValue record = parse_json(run_job_line(campaign, job));
    EXPECT_EQ(record.at("solver").as_string(), "exact_bb");
    EXPECT_TRUE(record.at("certified").as_bool());  // n=10 closes within budget
    const std::uint64_t n = record.at("n").as_uint();
    const JsonValue& counters = record.at("obs");  // the work counts live in the obs block
    EXPECT_EQ(counters.at("audit.nash.players_certified").as_uint(), n);
    EXPECT_GT(counters.at("solver.exact_bb.nodes").as_uint(), 0u);
    if (record.at("stable").as_bool()) {
      EXPECT_EQ(record.at("epsilon").as_uint(), 0u);
      EXPECT_TRUE(record.at("deviator").is_null());
      EXPECT_TRUE(record.at("regret").is_null());
    } else {
      EXPECT_GT(record.at("epsilon").as_uint(), 0u);
      EXPECT_LT(record.at("deviator").as_uint(), n);
      EXPECT_GE(record.at("epsilon").as_uint(), record.at("regret").as_uint());
    }
  }
}

TEST(EngineTasks, NashAuditAgreesAcrossSolversOnTheVerdict) {
  // exact_bb and the swap ladder (which is also exact at this size) must
  // agree on stable/certified for every job.
  const CampaignSpec bb = campaign_for("nash_audit");
  const CampaignSpec ladder =
      campaign_for("nash_audit", R"(, "params": {"solver": "swap"})");
  const std::vector<Job> jobs = expand_jobs(bb);
  for (const Job& job : jobs) {
    const JsonValue a = parse_json(run_job_line(bb, job));
    const JsonValue b = parse_json(run_job_line(ladder, job));
    EXPECT_EQ(a.at("stable").as_bool(), b.at("stable").as_bool());
    EXPECT_EQ(a.at("certified").as_bool(), b.at("certified").as_bool());
    EXPECT_EQ(a.at("epsilon").as_uint(), b.at("epsilon").as_uint());
  }
}

TEST(EngineTasks, ListTasksCoversEveryKind) {
  const auto tasks = list_tasks();
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_EQ(tasks[0].first, "dynamics");
  EXPECT_EQ(tasks[1].first, "swap_equilibrium");
  EXPECT_EQ(tasks[2].first, "poa");
  EXPECT_EQ(tasks[3].first, "audit");
  EXPECT_EQ(tasks[4].first, "nash_audit");
  EXPECT_EQ(tasks[5].first, "churn");
  for (const auto& [name, description] : tasks) EXPECT_FALSE(description.empty());
}

}  // namespace
}  // namespace bbng
