// Spec-validation golden tests for the scenario engine: well-formed specs
// parse into the expected CampaignSpec, and each class of malformed spec
// (unknown task, empty grid, overlapping seed ranges, stray keys, …) is
// rejected with a message naming the offence. Also pins the job-expansion
// order and the content-derived per-job RNG seeds that the byte-identical
// resume contract depends on.
#include "engine/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "engine/jobgraph.hpp"
#include "util/json.hpp"

namespace bbng {
namespace {

const char* kValidSingle = R"({
  "name": "tree_sum",
  "task": "dynamics",
  "version": "sum",
  "budgets": {"family": "tree"},
  "grid": {"n": [8, 12]},
  "seeds": {"begin": 0, "end": 5},
  "params": {"max_rounds": 50, "exact_limit": 1000, "schedule": "random_permutation"}
})";

const char* kValidCampaign = R"({
  "name": "two",
  "base_seed": 7,
  "scenarios": [
    {"name": "a", "task": "poa", "version": "max",
     "budgets": {"family": "random"},
     "grid": {"n": [8], "density": [1.0, 2.0]},
     "seeds": [{"begin": 0, "end": 3}, {"begin": 10, "end": 12}]},
    {"name": "b", "task": "audit", "version": "sum",
     "generator": "star",
     "grid": {"n": [9]},
     "seeds": {"begin": 0, "end": 4},
     "params": {"compute_connectivity": true}}
  ]
})";

TEST(EngineSpec, ParsesSingleScenarioForm) {
  const CampaignSpec campaign = parse_campaign_spec(kValidSingle);
  EXPECT_EQ(campaign.name, "tree_sum");
  EXPECT_EQ(campaign.base_seed, 1u);
  ASSERT_EQ(campaign.scenarios.size(), 1u);
  const ScenarioSpec& scenario = campaign.scenarios[0];
  EXPECT_EQ(scenario.name, "tree_sum");
  EXPECT_EQ(scenario.task, TaskKind::Dynamics);
  EXPECT_EQ(scenario.version, CostVersion::Sum);
  EXPECT_EQ(scenario.generator, GeneratorKind::RandomProfile);
  EXPECT_EQ(scenario.family, BudgetFamily::Tree);
  EXPECT_EQ(scenario.grid_n, (std::vector<std::uint32_t>{8, 12}));
  EXPECT_EQ(scenario.grid_density, std::vector<double>{1.0});
  EXPECT_EQ(scenario.seed_count(), 5u);
  EXPECT_EQ(scenario.params.max_rounds, 50u);
  EXPECT_EQ(scenario.params.exact_limit, 1000u);
  EXPECT_EQ(scenario.params.schedule, Schedule::RandomPermutation);
  EXPECT_TRUE(scenario.params.incremental);
  EXPECT_EQ(campaign.num_jobs(), 10u);
}

TEST(EngineSpec, ParsesCampaignForm) {
  const CampaignSpec campaign = parse_campaign_spec(kValidCampaign);
  EXPECT_EQ(campaign.name, "two");
  EXPECT_EQ(campaign.base_seed, 7u);
  ASSERT_EQ(campaign.scenarios.size(), 2u);
  EXPECT_EQ(campaign.scenarios[0].task, TaskKind::Poa);
  EXPECT_EQ(campaign.scenarios[0].family, BudgetFamily::Random);
  EXPECT_EQ(campaign.scenarios[0].grid_density, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(campaign.scenarios[0].seed_count(), 5u);   // 3 + 2
  EXPECT_EQ(campaign.scenarios[0].num_jobs(), 10u);    // 1 n × 2 densities × 5 seeds
  EXPECT_EQ(campaign.scenarios[1].generator, GeneratorKind::Star);
  EXPECT_TRUE(campaign.scenarios[1].params.compute_connectivity);
  EXPECT_EQ(campaign.num_jobs(), 14u);
}

/// Each entry: (mutated spec text, expected error-message fragment).
struct BadSpec {
  const char* text;
  const char* fragment;
};

TEST(EngineSpec, MalformedSpecsRejectedWithNamedOffence) {
  const BadSpec cases[] = {
      // Unknown task.
      {R"({"name":"x","task":"frobnicate","version":"sum",
           "budgets":{"family":"tree"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "unknown task \"frobnicate\""},
      // Empty grid.
      {R"({"name":"x","task":"dynamics","version":"sum",
           "budgets":{"family":"tree"},"grid":{"n":[]},"seeds":{"begin":0,"end":1}})",
       "grid.n must be a non-empty array"},
      // Overlapping seed ranges.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":[{"begin":0,"end":10},{"begin":5,"end":12}]})",
       "seed ranges overlap"},
      // Empty seed range.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":4,"end":4}})",
       "empty seed range"},
      // Unknown version.
      {R"({"name":"x","task":"dynamics","version":"avg",
           "budgets":{"family":"tree"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "unknown version"},
      // Unknown key at scenario level.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},"grids":{}})",
       "unknown key \"grids\""},
      // Unknown params key for the task.
      {R"({"name":"x","task":"swap_equilibrium","version":"sum",
           "budgets":{"family":"unit"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1},
           "params":{"max_rounds":5}})",
       "unknown key \"max_rounds\" in params"},
      // Missing budgets for random_profile.
      {R"({"name":"x","task":"dynamics","version":"sum",
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "missing required key \"budgets\""},
      // Budgets with an implied-budget generator.
      {R"({"name":"x","task":"dynamics","version":"sum","generator":"path",
           "budgets":{"family":"tree"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "implies its budgets"},
      // Unknown budget family.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"plutocratic"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "unknown budget family"},
      // Uniform family without b.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"uniform"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "uniform budgets need \"b\""},
      // Uniform b too large for the grid.
      {R"({"name":"x","task":"dynamics","version":"sum",
           "budgets":{"family":"uniform","b":8},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "needs n > b"},
      // Density axis outside the random family.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8],"density":[1.0,2.0]},"seeds":{"begin":0,"end":1}})",
       "density axis is only meaningful"},
      // Even a single-entry density is rejected outside the random family —
      // it would be stamped into every record and perturb job seeds while
      // never being applied.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"unit"},
           "grid":{"n":[8],"density":[2.0]},"seeds":{"begin":0,"end":1}})",
       "density axis is only meaningful"},
      // Density that no budget vector can realise (σ > n·(n−1)) dies at
      // validate time, not mid-campaign.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"random"},
           "grid":{"n":[8],"density":[50.0]},"seeds":{"begin":0,"end":1}})",
       "infeasible"},
      // Duplicate n.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8,8]},"seeds":{"begin":0,"end":1}})",
       "duplicated"},
      // Job count past 2^64: 3 n values × ⌈2^64 / 3⌉ seeds would wrap to 2.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8,12,16]},"seeds":{"begin":0,"end":6148914691236517206}})",
       "scenario \"x\": job count overflows 64 bits"},
      // Campaign total past 2^64: each scenario's 2^63 jobs fit, their sum
      // wraps to 0.
      {R"({"name":"c","scenarios":[
           {"name":"a","task":"dynamics","version":"sum","budgets":{"family":"tree"},
            "grid":{"n":[8,12]},"seeds":{"begin":0,"end":4611686018427387904}},
           {"name":"b","task":"dynamics","version":"sum","budgets":{"family":"tree"},
            "grid":{"n":[8,12]},"seeds":{"begin":0,"end":4611686018427387904}}]})",
       "scenario \"b\": job count overflows 64 bits"},
      // Duplicate density (would run and double-count identical jobs).
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"random"},
           "grid":{"n":[8],"density":[1.0,1.0]},"seeds":{"begin":0,"end":1}})",
       "duplicated"},
      // n too small.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[1]},"seeds":{"begin":0,"end":1}})",
       "at least 2"},
      // n beyond 32 bits must error, not truncate (4294967298 ≡ 2 mod 2^32).
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[4294967298]},"seeds":{"begin":0,"end":1}})",
       "grid.n entry 4294967298 exceeds kMaxPlayers"},
      // One past the cost-domain ceiling: (n−1)·n² and n³ would overflow
      // uint64 (the accepted side, n = kMaxPlayers, is checked below).
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8,2642246]},"seeds":{"begin":0,"end":1}})",
       "spec: scenario \"x\": grid.n entry 2642246 exceeds kMaxPlayers = 2642245"},
      // Uniform b beyond 32 bits must error, not truncate to 0.
      {R"({"name":"x","task":"dynamics","version":"sum",
           "budgets":{"family":"uniform","b":4294967296},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "does not fit 32 bits"},
      // Duplicate scenario names in a campaign.
      {R"({"name":"c","scenarios":[
           {"name":"a","task":"dynamics","version":"sum","budgets":{"family":"tree"},
            "grid":{"n":[8]},"seeds":{"begin":0,"end":1}},
           {"name":"a","task":"dynamics","version":"max","budgets":{"family":"tree"},
            "grid":{"n":[8]},"seeds":{"begin":0,"end":1}}]})",
       "duplicate scenario name"},
      // The gauge sampler's cadence is a constant, not a spec key.
      {R"({"name":"x","gauge_sample_seconds":1.0,"task":"dynamics","version":"sum",
           "budgets":{"family":"tree"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "unknown key \"gauge_sample_seconds\""},
      // base_seed misplaced inside a campaign scenario.
      {R"({"name":"c","scenarios":[
           {"name":"a","base_seed":3,"task":"dynamics","version":"sum",
            "budgets":{"family":"tree"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1}}]})",
       "base_seed belongs at the campaign level"},
      // Empty scenarios array.
      {R"({"name":"c","scenarios":[]})", "non-empty array"},
      // Missing name.
      {R"({"task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "missing required key \"name\""},
      // Unknown solver backend, named together with the registered ones.
      {R"({"name":"x","task":"nash_audit","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver":"quantum_annealer"}})",
       "unknown solver \"quantum_annealer\""},
      // solver is only meaningful where best-response queries happen.
      {R"({"name":"x","task":"audit","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver":"exact_bb"}})",
       "unknown key \"solver\" in params"},
      // Unknown key inside solver_budget.
      {R"({"name":"x","task":"nash_audit","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver_budget":{"node_limit":10,"fuel":3}}})",
       "unknown key \"fuel\""},
      // solver_budget must be an object.
      {R"({"name":"x","task":"poa","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver_budget":12}})",
       "solver_budget must be an object"},
      // A deadline aimed at the swap ladder (explicitly or via the
      // dynamics/poa default) would be a silent no-op — reject it.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver_budget":{"deadline_ms":250}}})",
       "deadline_ms is not supported by the \"swap\" backend"},
      {R"({"name":"x","task":"nash_audit","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver":"swap","solver_budget":{"deadline_ms":250}}})",
       "deadline_ms is not supported by the \"swap\" backend"},
      // A scalar of the wrong JSON type names its key path, wherever it sits.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},"params":{"incremental":1}})",
       "scenario \"x\": params.incremental: JSON value is int, wanted bool"},
      {R"({"name":"x","base_seed":"x","task":"dynamics","version":"sum",
           "budgets":{"family":"tree"},"grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "campaign: base_seed: JSON value is string, wanted int"},
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":"0","end":1}})",
       "seeds.begin: JSON value is string, wanted int"},
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":["16"]},"seeds":{"begin":0,"end":1}})",
       "grid.n: JSON value is string, wanted int"},
      {R"({"name":"x","task":"dynamics","version":3,"budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "version: JSON value is int, wanted string"},
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},"params":{"exact_limit":1.5}})",
       "params.exact_limit: JSON value is double, wanted int"},
      {R"({"name":"x","task":"nash_audit","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"solver_budget":{"node_limit":"9"}}})",
       "params.solver_budget.node_limit: JSON value is string, wanted int"},
      {R"({"name":"x","task":"churn","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},"params":{"churn":{"events":-3}}})",
       "params.churn.events: JSON value is negative, wanted unsigned"},
      {R"({"name":"x","task":"churn","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[6]},"seeds":{"begin":0,"end":1},
           "params":{"churn":{"weights":{"join":"x"}}}})",
       "params.churn.weights.join: JSON value is string, wanted int"},
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":7},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1}})",
       "budgets.family: JSON value is int, wanted string"},
  };
  for (const BadSpec& bad : cases) {
    try {
      static_cast<void>(parse_campaign_spec(bad.text));
      FAIL() << "spec accepted but should have been rejected: " << bad.text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(bad.fragment), std::string::npos)
          << "error was: " << error.what() << "\nexpected fragment: " << bad.fragment;
    }
  }
  // The other side of the cost-domain ceiling: n = kMaxPlayers validates.
  const CampaignSpec at_ceiling = parse_campaign_spec(
      R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
          "grid":{"n":[2642245]},"seeds":{"begin":0,"end":1}})");
  ASSERT_EQ(at_ceiling.scenarios.size(), 1u);
  EXPECT_EQ(at_ceiling.scenarios[0].grid_n, std::vector<std::uint32_t>{kMaxPlayers});
}

TEST(EngineSpec, ParsesSolverAndSolverBudgetParams) {
  const CampaignSpec campaign = parse_campaign_spec(R"({
    "name": "nash_probe",
    "task": "nash_audit",
    "version": "max",
    "budgets": {"family": "tree"},
    "grid": {"n": [7]},
    "seeds": {"begin": 0, "end": 3},
    "params": {"solver": "exact_bb",
               "solver_budget": {"node_limit": 50000, "deadline_ms": 250},
               "incremental": false}})");
  ASSERT_EQ(campaign.scenarios.size(), 1u);
  const ScenarioSpec& scenario = campaign.scenarios[0];
  EXPECT_EQ(scenario.task, TaskKind::NashAudit);
  EXPECT_EQ(scenario.params.solver, "exact_bb");
  EXPECT_EQ(scenario.params.solver_node_limit, 50'000u);
  EXPECT_EQ(scenario.params.solver_deadline_ms, 250u);
  EXPECT_FALSE(scenario.params.incremental);
  // Defaults: empty solver string (task default), zero budget knobs.
  const CampaignSpec plain = parse_campaign_spec(kValidSingle);
  EXPECT_TRUE(plain.scenarios[0].params.solver.empty());
  EXPECT_EQ(plain.scenarios[0].params.solver_node_limit, 0u);
  EXPECT_EQ(plain.scenarios[0].params.solver_deadline_ms, 0u);
}

TEST(EngineSpec, ParsesChurnParams) {
  const CampaignSpec campaign = parse_campaign_spec(R"({
    "name": "churn_probe",
    "task": "churn",
    "version": "sum",
    "budgets": {"family": "tree"},
    "grid": {"n": [9]},
    "seeds": {"begin": 0, "end": 2},
    "params": {"solver": "swap",
               "churn": {"events": 40, "checkpoint_every": 10, "mode": "respond",
                         "max_budget": 5,
                         "weights": {"join": 8, "leave": 1, "grow": 8, "shrink": 2,
                                     "perturb": 0}}}})");
  ASSERT_EQ(campaign.scenarios.size(), 1u);
  const ScenarioSpec& scenario = campaign.scenarios[0];
  EXPECT_EQ(scenario.task, TaskKind::Churn);
  EXPECT_EQ(scenario.params.churn_events, 40u);
  EXPECT_EQ(scenario.params.churn_checkpoint_every, 10u);
  EXPECT_EQ(scenario.params.churn_mode, ChurnMode::Respond);
  EXPECT_EQ(scenario.params.churn_max_budget, 5u);
  EXPECT_EQ(scenario.params.churn_weights.join, 8u);
  EXPECT_EQ(scenario.params.churn_weights.perturb, 0u);
  EXPECT_EQ(default_solver(TaskKind::Churn), "exact_bb");

  const BadSpec churn_cases[] = {
      // The churn object is strict: unknown keys and degenerate values die.
      {R"({"name":"x","task":"churn","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},
           "params":{"churn":{"events":0}}})",
       "churn.events must be positive"},
      {R"({"name":"x","task":"churn","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},
           "params":{"churn":{"mode":"drift"}}})",
       "unknown churn mode \"drift\""},
      {R"({"name":"x","task":"churn","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},
           "params":{"churn":{"cadence":3}}})",
       "unknown key \"cadence\""},
      {R"({"name":"x","task":"churn","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},
           "params":{"churn":{"weights":{"join":0,"leave":0,"grow":0,"shrink":0,
                                         "perturb":0}}}})",
       "at least one event kind"},
      // The churn params object belongs to the churn task only.
      {R"({"name":"x","task":"dynamics","version":"sum","budgets":{"family":"tree"},
           "grid":{"n":[8]},"seeds":{"begin":0,"end":1},
           "params":{"churn":{"events":4}}})",
       "unknown key \"churn\""},
  };
  for (const BadSpec& bad : churn_cases) {
    try {
      static_cast<void>(parse_campaign_spec(bad.text));
      FAIL() << "accepted: " << bad.text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(bad.fragment), std::string::npos)
          << error.what();
    }
  }
}

TEST(EngineSpec, ParsesGraphCoreParam) {
  // graph_core selects the oracle's adjacency layout; both values are legal
  // on the tasks that score strategies, csr is the default, and anything
  // else is rejected by name.
  const CampaignSpec vec = parse_campaign_spec(R"({
    "name": "core_probe",
    "task": "swap_equilibrium",
    "version": "sum",
    "budgets": {"family": "tree"},
    "grid": {"n": [7]},
    "seeds": {"begin": 0, "end": 2},
    "params": {"graph_core": "vector"}})");
  EXPECT_EQ(vec.scenarios[0].params.graph_core, GraphCore::kVector);
  const CampaignSpec csr = parse_campaign_spec(R"({
    "name": "core_probe",
    "task": "dynamics",
    "version": "sum",
    "budgets": {"family": "tree"},
    "grid": {"n": [7]},
    "seeds": {"begin": 0, "end": 2},
    "params": {"graph_core": "csr"}})");
  EXPECT_EQ(csr.scenarios[0].params.graph_core, GraphCore::kCsr);
  EXPECT_EQ(parse_campaign_spec(kValidSingle).scenarios[0].params.graph_core, GraphCore::kCsr)
      << "csr must be the default";
  try {
    static_cast<void>(parse_campaign_spec(R"({
      "name": "core_probe",
      "task": "dynamics",
      "version": "sum",
      "budgets": {"family": "tree"},
      "grid": {"n": [7]},
      "seeds": {"begin": 0, "end": 2},
      "params": {"graph_core": "linked_list"}})"));
    FAIL() << "unknown graph_core accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("graph_core"), std::string::npos) << error.what();
  }
}

TEST(EngineSpec, MalformedJsonSurfacesParsePosition) {
  EXPECT_THROW(static_cast<void>(parse_campaign_spec("{\"name\": }")), JsonParseError);
}

TEST(EngineSpec, FingerprintIsStableAndContentSensitive) {
  const std::string a = spec_fingerprint(kValidSingle);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a, spec_fingerprint(kValidSingle));
  EXPECT_NE(a, spec_fingerprint(std::string(kValidSingle) + " "));
}

TEST(EngineSpec, ExpansionOrderAndIds) {
  const CampaignSpec campaign = parse_campaign_spec(kValidCampaign);
  const std::vector<Job> jobs = expand_jobs(campaign);
  ASSERT_EQ(jobs.size(), campaign.num_jobs());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
  }
  // Scenario a: n=8 × density {1.0, 2.0} × seeds {0,1,2,10,11}; then b.
  EXPECT_EQ(jobs[0].scenario_index, 0u);
  EXPECT_EQ(jobs[0].n, 8u);
  EXPECT_DOUBLE_EQ(jobs[0].density, 1.0);
  EXPECT_EQ(jobs[0].seed, 0u);
  EXPECT_EQ(jobs[3].seed, 10u);  // second range follows the first
  EXPECT_DOUBLE_EQ(jobs[5].density, 2.0);
  EXPECT_EQ(jobs[10].scenario_index, 1u);
  EXPECT_EQ(jobs[10].n, 9u);
}

TEST(EngineSpec, JobSeedsAreContentDerived) {
  // Distinct jobs get distinct streams…
  const CampaignSpec campaign = parse_campaign_spec(kValidCampaign);
  const std::vector<Job> jobs = expand_jobs(campaign);
  std::set<std::uint64_t> seeds;
  for (const Job& job : jobs) seeds.insert(job.rng_seed);
  EXPECT_EQ(seeds.size(), jobs.size());
  // …the derivation ignores expansion position (only content matters)…
  EXPECT_EQ(job_rng_seed(7, "a", 8, 2.0, 11), jobs[9].rng_seed);
  // …and every input participates.
  const std::uint64_t base = job_rng_seed(1, "a", 8, 1.0, 0);
  EXPECT_NE(base, job_rng_seed(2, "a", 8, 1.0, 0));
  EXPECT_NE(base, job_rng_seed(1, "b", 8, 1.0, 0));
  EXPECT_NE(base, job_rng_seed(1, "a", 9, 1.0, 0));
  EXPECT_NE(base, job_rng_seed(1, "a", 8, 1.5, 0));
  EXPECT_NE(base, job_rng_seed(1, "a", 8, 1.0, 1));
}

TEST(EngineSpec, LoadRejectsMissingFile) {
  EXPECT_THROW(static_cast<void>(load_campaign_spec("/nonexistent/spec.json")),
               std::invalid_argument);
}

}  // namespace
}  // namespace bbng
