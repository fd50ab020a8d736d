// Best-response dynamics.
//
// Starting from an arbitrary realization, players repeatedly switch to a
// (better or best) response. The paper leaves convergence open (Section 8;
// Laoutaris et al. exhibit a loop in the directed variant), so the engine
// detects both convergence (a full pass with no strategy change) and
// improvement cycles (a previously seen state recurs — only meaningful
// under deterministic schedules).
//
// Best-response moves are answered by a solver-registry backend selected by
// name in the config (solver/registry.hpp): the default "swap" ladder uses
// the exact solver when the player's candidate space fits `exact_limit` and
// greedy+swap otherwise; "exact_bb" makes every move a certified best
// response; "portfolio" races heuristics. `DynamicsResult::all_moves_exact`
// records whether any move lacked an optimality certificate, because a
// "converged" verdict is a Nash certificate only when every player's last
// scan was certified.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "game/best_response.hpp"
#include "game/game.hpp"
#include "graph/digraph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace bbng {

enum class Schedule {
  RoundRobin,         ///< players 0,1,…,n-1 each round
  RandomPermutation,  ///< fresh uniform order each round
  UniformRandom,      ///< n independent uniform picks per round
};

enum class MovePolicy {
  BestResponse,        ///< each visit plays a (possibly heuristic) best response
  FirstImprovingSwap,  ///< each visit applies the first improving single-head
                       ///< swap (the move set of Alon et al.'s basic games);
                       ///< convergence then certifies a swap equilibrium only
};

struct DynamicsConfig {
  CostVersion version = CostVersion::Sum;
  Schedule schedule = Schedule::RoundRobin;
  MovePolicy policy = MovePolicy::BestResponse;
  std::uint64_t max_rounds = 1000;       ///< full passes before giving up
  std::uint64_t exact_limit = 200'000;   ///< per-player exact-search budget
  std::uint64_t seed = 1;                ///< RNG for randomised schedules
  bool record_trajectory = false;        ///< record social cost per round
  /// Moves score on TableEvaluator for n ≤ kTableEvaluatorLimit. Above it
  /// they score on the incremental delta oracle (DeltaEvaluatorT); false
  /// forces the naive full-BFS path. All produce identical runs.
  bool incremental = true;
  /// Graph core of the delta oracle (ignored when it does not run). The cores
  /// are bit-identical, so this is a performance knob, never a semantic one.
  GraphCore graph_core = GraphCore::kCsr;
  /// Registry backend answering BestResponse moves ("swap" keeps the
  /// pre-registry behaviour bit-for-bit). Validated at run start; unknown
  /// names throw std::invalid_argument listing the registered ones.
  std::string solver = "swap";
  /// Backend work cap per move (exact_bb: search nodes, 0 = unlimited;
  /// swap: the legacy exact-enumeration candidate cap, 0 disables exact).
  /// 0 here falls back to `exact_limit` so existing configs keep their
  /// exact meaning, including exact_limit = 0.
  std::uint64_t solver_node_limit = 0;
  /// Wall-clock cap per move; 0 = none. Honoured by exact_bb and portfolio;
  /// the swap ladder has no preemption point and ignores it. Non-zero
  /// deadlines make runs machine-dependent — leave 0 anywhere artifacts
  /// must be reproducible.
  double solver_deadline_seconds = 0;
  /// Per-player budget caps (size n when set). Empty — the default — derives
  /// budgets from the initial realization's out-degrees, the classic
  /// implicit reading, bit-identical to every pre-churn run. When set, the
  /// move loop gates players on BUDGET instead of current degree: a player
  /// with a positive budget and no edges yet (a churn join) still gets its
  /// turn to buy a first strategy, and BestResponse moves are solved and
  /// applied under the cap (SolverBudget::budget_cap), resizing the strategy
  /// to exactly the cap on the player's first visit. FirstImprovingSwap
  /// moves preserve strategy size by definition, so zero-degree players
  /// remain no-ops under that policy only.
  std::vector<std::uint32_t> budgets;
};

/// Collision-safe seen-state set for improvement-cycle detection. The 64-bit
/// realization hash only buckets states; membership is decided by comparing
/// full canonical encodings (every player's out-degree and sorted head
/// list), so a hash collision can never mislabel a fresh state as a repeat
/// and truncate a run with a phantom cycle. The hasher is injectable so
/// tests can force two distinct states into one bucket; production uses
/// Digraph::hash().
class SeenStateSet {
 public:
  using Hasher = std::uint64_t (*)(const Digraph&);
  explicit SeenStateSet(Hasher hasher = nullptr) : hasher_(hasher) {}

  /// True iff the state is new (and was inserted); false on a genuine
  /// repeat. A hash hit against a distinct state inserts and counts a
  /// collision instead of reporting a repeat.
  bool insert(const Digraph& g);

  [[nodiscard]] std::size_t size() const noexcept { return states_; }
  /// Distinct states found sharing a bucket — each one a phantom cycle the
  /// bare-hash scheme would have reported.
  [[nodiscard]] std::uint64_t collisions() const noexcept { return collisions_; }

 private:
  Hasher hasher_;  ///< nullptr = Digraph::hash
  std::unordered_map<std::uint64_t, std::vector<std::string>> buckets_;
  std::size_t states_ = 0;
  std::uint64_t collisions_ = 0;
};

struct DynamicsResult {
  Digraph graph{1};            ///< final realization
  bool converged = false;      ///< a full pass produced no move
  bool cycle_detected = false; ///< a state hash recurred (round-robin only)
  bool all_moves_exact = true; ///< no heuristic fallback was ever used
  std::uint64_t rounds = 0;    ///< full passes executed
  std::uint64_t moves = 0;     ///< strategy changes applied
  std::uint64_t evaluations = 0;  ///< candidate strategies scored in total,
                                  ///< by every scan whether it moved or not
  std::uint64_t bfs_avoided = 0;  ///< evaluations served without a full BFS
  /// Distinct states that shared a 64-bit hash during cycle detection —
  /// phantom cycles the old bare-hash scheme would have reported.
  std::uint64_t hash_collisions = 0;
  /// Social cost (diameter; n² while disconnected) after each round, with
  /// the initial state prepended. Filled when config.record_trajectory.
  std::vector<std::uint64_t> trajectory;
};

[[nodiscard]] DynamicsResult run_best_response_dynamics(const Digraph& initial,
                                                        const DynamicsConfig& config,
                                                        ThreadPool* pool = nullptr);

}  // namespace bbng
