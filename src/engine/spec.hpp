// Declarative experiment specs for the scenario engine.
//
// A spec is a JSON document describing a *campaign*: one or more scenarios,
// each a (graph generator, budget family, cost version, task, parameter
// grid, seed ranges) tuple. The engine expands a campaign into a
// deterministic job list (jobgraph.hpp) and runs it sharded (runner.hpp).
//
// Parsing is strict: unknown keys, unknown task names, empty grids, and
// overlapping seed ranges are rejected with a message naming the offending
// field, so a typo'd million-instance campaign dies at validate time rather
// than after a night of compute. The accepted schema is documented in
// examples/specs/README.md next to the regime specs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "game/churn.hpp"
#include "game/dynamics.hpp"
#include "game/game.hpp"

namespace bbng {

/// What the engine computes per game instance (see tasks.hpp for adapters).
enum class TaskKind {
  Dynamics,         ///< run best-response dynamics, record convergence
  SwapEquilibrium,  ///< verify single-head swap stability of the start state
  Poa,              ///< dynamics to rest, then bracket the PoA contribution
  Audit,            ///< full StateAudit of the generated state
  NashAudit,        ///< certified Nash/ε-Nash verdict via the solver registry
  Churn,            ///< sampled churn trace with an incremental ε-Nash certificate
};

/// How the initial realization is produced.
enum class GeneratorKind {
  RandomProfile,  ///< budgets from `family`, then a uniform random profile
  RandomTree,     ///< uniform random tree, child→parent (budgets implied)
  Path,           ///< directed path (budgets implied)
  Cycle,          ///< directed cycle (budgets implied)
  Star,           ///< center owns all leaves (budgets implied)
};

/// Budget-vector family for GeneratorKind::RandomProfile.
enum class BudgetFamily {
  Tree,     ///< σ = n−1, dealt uniformly (Section 3 regime)
  Unit,     ///< b_i = 1 for all i (Section 4 regime)
  Uniform,  ///< b_i = b for all i (Section 8 suggested open case)
  Random,   ///< σ = round(density·n), dealt uniformly (general regime)
};

[[nodiscard]] std::string to_string(TaskKind kind);
[[nodiscard]] std::string to_string(GeneratorKind kind);
[[nodiscard]] std::string to_string(BudgetFamily family);

/// Registry backend a task uses when params.solver is empty — the single
/// source both validation and the task adapters consult, so accept/reject
/// decisions and runtime behaviour cannot drift apart.
[[nodiscard]] std::string default_solver(TaskKind task);

/// Half-open seed interval [begin, end).
struct SeedRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t count() const noexcept { return end - begin; }
};

/// Per-task tunables (a strict subset applies to each TaskKind; the parser
/// rejects keys that the scenario's task does not consume).
struct TaskParams {
  std::uint64_t max_rounds = 200;       ///< dynamics, poa
  std::uint64_t exact_limit = 20'000;   ///< dynamics, poa, audit
  Schedule schedule = Schedule::RoundRobin;          ///< dynamics, poa
  MovePolicy policy = MovePolicy::BestResponse;      ///< dynamics, poa
  bool incremental = true;              ///< dynamics, poa, swap_equilibrium, nash_audit, churn
  /// Adjacency layout ("csr" | "vector"); same tasks as `incremental`. Above
  /// n = 2048 it picks the layout of the incremental delta oracle. Above
  /// n = 64 it also picks the layout of the batched current-cost prepass of
  /// nash_audit and churn (batched_current_costs). Records are bit-identical
  /// either way, so specs may flip both freely.
  GraphCore graph_core = GraphCore::kCsr;
  std::uint64_t swap_limit = 2'000'000; ///< audit
  bool compute_connectivity = false;    ///< audit (κ costs O(n) max-flows)
  /// Solver-registry backend answering best-response queries (dynamics, poa,
  /// nash_audit). Empty = the task default: "swap" for dynamics/poa,
  /// "exact_bb" for nash_audit. Validated against the registry at parse time.
  std::string solver;
  /// "solver_budget" object: per-query work cap (backend-specific nodes;
  /// 0 = task default) and wall-clock deadline in ms (0 = none; non-zero
  /// deadlines trade byte-reproducibility for latency, so specs meant for
  /// byte-identical artifacts should leave it 0).
  std::uint64_t solver_node_limit = 0;
  std::uint64_t solver_deadline_ms = 0;
  /// "churn" object (churn task only): events to sample, checkpoint cadence
  /// for the from-scratch audit comparison (0 = never audit), churn mode,
  /// the sampler's budget ceiling, and the event-kind weights.
  std::uint64_t churn_events = 64;
  std::uint64_t churn_checkpoint_every = 16;
  ChurnMode churn_mode = ChurnMode::Track;
  std::uint32_t churn_max_budget = 3;
  ChurnTraceWeights churn_weights;
};

struct ScenarioSpec {
  std::string name;
  TaskKind task = TaskKind::Dynamics;
  CostVersion version = CostVersion::Sum;
  GeneratorKind generator = GeneratorKind::RandomProfile;
  BudgetFamily family = BudgetFamily::Tree;
  std::uint32_t uniform_b = 1;          ///< family == Uniform only
  std::vector<std::uint32_t> grid_n;    ///< instance sizes (axis 1)
  std::vector<double> grid_density;     ///< σ/n for family == Random (axis 2)
  std::vector<SeedRange> seeds;         ///< disjoint ranges (axis 3)
  TaskParams params;

  [[nodiscard]] std::uint64_t seed_count() const noexcept;
  [[nodiscard]] std::uint64_t num_jobs() const noexcept;
};

struct CampaignSpec {
  std::string name;
  std::uint64_t base_seed = 1;
  /// Embed per-job `obs` counter blocks in the artifact (top-level "obs"
  /// key, default true). False writes verdict-only records (the work counts
  /// live only in the blocks). The one switch for the blocks: it is part of
  /// the spec bytes, hence of the fingerprint, so a resume cannot change it.
  bool obs = true;
  std::vector<ScenarioSpec> scenarios;

  [[nodiscard]] std::uint64_t num_jobs() const noexcept;
};

/// Parse + validate a campaign spec. The document is either a campaign
/// ({"name", "base_seed"?, "scenarios": [...]}) or a single scenario object
/// (scenario keys at top level), which becomes a one-scenario campaign.
/// Throws JsonParseError on malformed JSON and std::invalid_argument on a
/// schema violation.
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& json_text);

/// Read `path` and parse_campaign_spec() it; when `raw_text` is non-null the
/// file's exact bytes are stored there (the runner fingerprints them).
[[nodiscard]] CampaignSpec load_campaign_spec(const std::string& path,
                                              std::string* raw_text = nullptr);

/// FNV-1a 64 fingerprint of the spec bytes, as 16 hex digits. Checkpoint
/// manifests record it so `resume` refuses to continue a different spec.
[[nodiscard]] std::string spec_fingerprint(const std::string& json_text);

}  // namespace bbng
