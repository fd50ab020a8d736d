#include "engine/tasks.hpp"

#include <cmath>
#include <sstream>

#include <string>

#include "constructions/poa.hpp"
#include "game/analysis.hpp"
#include "game/cost.hpp"
#include "game/dynamics.hpp"
#include "game/equilibrium.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace bbng {

namespace {

std::vector<std::uint32_t> make_budgets(const ScenarioSpec& scenario, std::uint32_t n,
                                        double density, Rng& rng) {
  switch (scenario.family) {
    case BudgetFamily::Tree: return random_budgets(n, n - 1, rng);
    case BudgetFamily::Unit: return std::vector<std::uint32_t>(n, 1);
    case BudgetFamily::Uniform: return std::vector<std::uint32_t>(n, scenario.uniform_b);
    case BudgetFamily::Random: {
      const auto sigma = static_cast<std::uint64_t>(std::llround(density * n));
      return random_budgets(n, sigma, rng);
    }
  }
  BBNG_ASSERT(false);
  return {};
}

Digraph make_initial(const ScenarioSpec& scenario, std::uint32_t n, double density, Rng& rng) {
  switch (scenario.generator) {
    case GeneratorKind::RandomProfile:
      return random_profile(make_budgets(scenario, n, density, rng), rng);
    case GeneratorKind::RandomTree: return random_tree_digraph(n, rng);
    case GeneratorKind::Path: return path_digraph(n);
    case GeneratorKind::Cycle: return cycle_digraph(n);
    case GeneratorKind::Star: return star_digraph(n);
  }
  BBNG_ASSERT(false);
  return Digraph(1);
}

std::string solver_name(const ScenarioSpec& scenario) {
  return scenario.params.solver.empty() ? default_solver(scenario.task) : scenario.params.solver;
}

/// The per-solve budget of the certified tasks. A default node cap keeps a
/// fat query from hanging a campaign; the record then honestly reports
/// certified=false instead.
SolverBudget certified_budget(const ScenarioSpec& scenario) {
  SolverBudget budget;
  budget.node_limit =
      scenario.params.solver_node_limit > 0 ? scenario.params.solver_node_limit : 200'000;
  budget.deadline_seconds = static_cast<double>(scenario.params.solver_deadline_ms) / 1000.0;
  budget.incremental = scenario.params.incremental;
  budget.core = scenario.params.graph_core;
  return budget;
}

DynamicsConfig dynamics_config(const ScenarioSpec& scenario, Rng& rng) {
  DynamicsConfig config;
  config.version = scenario.version;
  config.schedule = scenario.params.schedule;
  config.policy = scenario.params.policy;
  config.max_rounds = scenario.params.max_rounds;
  config.exact_limit = scenario.params.exact_limit;
  config.seed = rng();  // fresh stream for the schedule, after generator draws
  config.incremental = scenario.params.incremental;
  config.graph_core = scenario.params.graph_core;
  config.solver = solver_name(scenario);
  config.solver_node_limit = scenario.params.solver_node_limit;
  config.solver_deadline_seconds =
      static_cast<double>(scenario.params.solver_deadline_ms) / 1000.0;
  return config;
}

void emit_dynamics(JsonWriter& writer, const DynamicsResult& result, ThreadPool* pool) {
  const UGraph underlying = result.graph.underlying();
  writer.field("converged", result.converged)
      .field("cycle_detected", result.cycle_detected)
      .field("all_moves_exact", result.all_moves_exact)
      .field("rounds", result.rounds)
      .field("moves", result.moves)
      .field("evaluations", result.evaluations)
      .field("bfs_avoided", result.bfs_avoided)
      .field("connected", is_connected(underlying))
      .field("social_cost", social_cost(underlying, pool));
}

void run_dynamics(JsonWriter& writer, const ScenarioSpec& scenario, const Digraph& initial,
                  Rng& rng, ThreadPool* pool) {
  const DynamicsResult result =
      run_best_response_dynamics(initial, dynamics_config(scenario, rng), pool);
  emit_dynamics(writer, result, pool);
}

void run_poa(JsonWriter& writer, const ScenarioSpec& scenario, const Digraph& initial,
             Rng& rng, ThreadPool* pool) {
  const DynamicsResult result =
      run_best_response_dynamics(initial, dynamics_config(scenario, rng), pool);
  const BudgetGame game(result.graph.budgets());
  const PoaEstimate estimate = poa_estimate(game, result.graph, pool);
  writer.field("converged", result.converged)
      .field("equilibrium_diameter", estimate.equilibrium_diameter)
      .field("opt_lower", estimate.opt.lower)
      .field("opt_upper", estimate.opt.upper)
      .field("ratio_lower", estimate.ratio_lower)
      .field("ratio_upper", estimate.ratio_upper);
}

void run_swap_equilibrium(JsonWriter& writer, const ScenarioSpec& scenario,
                          const Digraph& initial, ThreadPool* pool) {
  const EquilibriumReport report =
      verify_swap_equilibrium(initial, scenario.version, pool,
                              scenario.params.incremental, scenario.params.graph_core);
  writer.field("stable", report.stable);
  writer.key("deviator");
  if (report.stable) {
    writer.null();
    writer.key("improvement").null();
  } else {
    writer.value(report.deviator);
    writer.field("improvement", report.old_cost - report.new_cost);
  }
}

void run_nash_audit(JsonWriter& writer, const ScenarioSpec& scenario, const Digraph& initial,
                    ThreadPool* pool) {
  const std::string solver = solver_name(scenario);
  const NashReport report =
      verify_nash_equilibrium(initial, scenario.version, certified_budget(scenario), solver, pool);
  writer.field("solver", solver)
      .field("stable", report.stable)
      .field("certified", report.certified)
      .field("epsilon", report.epsilon);
  writer.key("deviator");
  if (report.stable) {
    writer.null();
    writer.key("regret").null();
  } else {
    writer.value(report.deviator);
    writer.field("regret", report.old_cost - report.new_cost);
  }
}

void run_churn(JsonWriter& writer, const ScenarioSpec& scenario, const Digraph& initial,
               Rng& rng, ThreadPool* pool) {
  ChurnConfig config;
  config.version = scenario.version;
  config.mode = scenario.params.churn_mode;
  config.solver = solver_name(scenario);
  config.budget = certified_budget(scenario);

  ChurnEngine engine(initial, initial.budgets(), config, pool);
  ChurnTraceSampler sampler(scenario.params.churn_weights, scenario.params.churn_max_budget,
                            /*seed=*/rng());

  // Checkpoints replay the from-scratch audit and compare the incremental
  // certificate bit for bit; a divergence is recorded, not thrown, so one
  // bad job cannot kill a campaign silently mid-checkpoint.
  const std::uint64_t every = scenario.params.churn_checkpoint_every;
  std::uint64_t checkpoints = 0;
  bool checkpoints_identical = true;
  const auto checkpoint = [&engine, &checkpoints, &checkpoints_identical] {
    const NashReport report = engine.audit();
    ++checkpoints;
    checkpoints_identical = checkpoints_identical && engine.epsilon() == report.epsilon &&
                            engine.stable() == report.stable &&
                            (report.stable || engine.deviator() == report.deviator);
  };

  std::uint64_t applied = 0;
  for (std::uint64_t e = 0; e < scenario.params.churn_events; ++e) {
    const auto event = sampler.next(engine.graph(), engine.budgets());
    if (!event) break;  // no kind feasible against the live state
    engine.apply(*event);
    ++applied;
    if (every > 0 && applied % every == 0) checkpoint();
  }
  if (every > 0 && (applied % every != 0 || applied == 0)) checkpoint();

  const UGraph underlying = engine.graph().underlying();
  writer.field("solver", config.solver)
      .field("mode", to_string(config.mode))
      .field("events", applied)
      .field("active_players", engine.active_players())
      .field("checkpoints", checkpoints)
      .field("checkpoints_identical", checkpoints_identical)
      .field("stable", engine.stable())
      .field("certified", engine.certified())
      .field("epsilon", engine.epsilon())
      .field("connected", is_connected(underlying))
      .field("social_cost", social_cost(underlying, pool));
  writer.key("deviator");
  if (engine.stable()) {
    writer.null();
  } else {
    writer.value(engine.deviator());
  }
}

void run_audit(JsonWriter& writer, const ScenarioSpec& scenario, const Digraph& initial,
               ThreadPool* pool) {
  AuditOptions options;
  options.version = scenario.version;
  options.exact_limit = scenario.params.exact_limit;
  options.swap_limit = scenario.params.swap_limit;
  options.compute_connectivity = scenario.params.compute_connectivity;
  const StateAudit audit = audit_state(initial, options, pool);
  writer.field("connected", audit.connected)
      .field("social_cost", audit.social_cost)
      .field("brace_count", audit.brace_count)
      .field("vertex_connectivity", audit.vertex_connectivity)
      .field("min_cost", audit.min_cost)
      .field("max_cost", audit.max_cost)
      .field("mean_cost", audit.mean_cost)
      .field("certificate", to_string(audit.certificate));
}

}  // namespace

std::string run_job_line(const CampaignSpec& campaign, const Job& job,
                         const JobOptions& options) {
  BBNG_REQUIRE(job.scenario_index < campaign.scenarios.size());
  const ScenarioSpec& scenario = campaign.scenarios[job.scenario_index];

  static const obs::HistogramId kJobHist = obs::register_histogram("engine.job");
  obs::ScopedTimer span(kJobHist, "job");
  span.arg("job", job.id);
  span.arg("task", to_string(scenario.task));
  span.arg("scenario", scenario.name);

  Rng rng(job.rng_seed);
  const Digraph initial = make_initial(scenario, job.n, job.density, rng);

  // Width-1 pool: run_chunked executes inline on this thread (no workers are
  // spawned), so every registry increment the job causes lands on THIS
  // thread's shard — the invariant that makes the frame below a pure
  // function of the job. The shared pool must never be reached from inside
  // a job: its workers would siphon counts onto foreign shards depending on
  // scheduling.
  ThreadPool serial(1);

  // The frame must be captured after generation (generators count nothing
  // today, but the block's meaning — "work of the measured task" — should
  // not silently widen if that changes) and before the task runs.
  const bool with_obs = options.obs && obs::kCompiledIn && obs::enabled();
  const obs::CounterFrame frame;

  std::ostringstream os;
  JsonWriter writer(os, /*pretty=*/false);
  writer.begin_object()
      .field("job", job.id)
      .field("scenario", scenario.name)
      .field("task", to_string(scenario.task))
      .field("version", to_string(scenario.version))
      .field("n", job.n)
      .field("density", job.density)
      .field("seed", job.seed);
  switch (scenario.task) {
    case TaskKind::Dynamics: run_dynamics(writer, scenario, initial, rng, &serial); break;
    case TaskKind::Poa: run_poa(writer, scenario, initial, rng, &serial); break;
    case TaskKind::SwapEquilibrium:
      run_swap_equilibrium(writer, scenario, initial, &serial);
      break;
    case TaskKind::Audit: run_audit(writer, scenario, initial, &serial); break;
    case TaskKind::NashAudit: run_nash_audit(writer, scenario, initial, &serial); break;
    case TaskKind::Churn: run_churn(writer, scenario, initial, rng, &serial); break;
  }
  if (with_obs) {
    // LAST member by contract: stripping the ,"obs":{...} suffix of a record
    // recovers the --no-obs bytes exactly (pinned by tests/test_obs.cpp).
    writer.key("obs");
    writer.begin_object();
    for (const obs::CounterValue& delta : frame.deltas()) {
      writer.field(delta.name, delta.value);
    }
    writer.end_object();
  }
  writer.end_object();
  BBNG_ASSERT(writer.complete());
  return os.str();
}

std::vector<std::pair<std::string, std::string>> list_tasks() {
  return {
      {"dynamics",
       "run best-response dynamics from the generated state; records convergence, "
       "rounds, moves, and the final social cost (Section 8 open problem)"},
      {"swap_equilibrium",
       "verify single-head swap stability of the generated state (Section 6 "
       "necessary condition); records the first deviator when unstable"},
      {"poa",
       "run dynamics to rest, then bracket the equilibrium's price-of-anarchy "
       "contribution against the optimum diameter bounds (Table 1)"},
      {"audit",
       "full state audit: connectivity, social cost, braces, cost spread, and the "
       "strongest feasible stability certificate"},
      {"nash_audit",
       "certified Nash / ε-Nash verdict: every player answered by a solver-registry "
       "backend (exact branch-and-bound by default) under an anytime budget; records "
       "the max regret and whether every per-player search closed (Theorem 2.1 "
       "caveat: keep n small)"},
      {"churn",
       "apply a sampled stream of join/leave/budget/perturbation events to a live "
       "state while maintaining an incremental ε-Nash certificate; records the "
       "per-event work saved over re-auditing and whether every checkpoint audit "
       "matched the incremental certificate bit for bit"},
  };
}

}  // namespace bbng
