// Heuristic best-response portfolio: race several constructions, keep the
// best incumbent.
//
// Best-response instances differ wildly in which heuristic wins — swap
// descent is strong near an equilibrium, greedy from scratch is strong on
// fresh random profiles, and a facility-seeded start (the Theorem 2.1
// reduction run backwards: k-median for SUM, k-center for MAX, then swap
// descent) is strong on cluster-structured graphs. The portfolio runs all
// three and returns the cheapest incumbent, so it is never worse than any
// single member — in particular never worse than the plain swap-descent
// baseline (tests/test_solver_portfolio.cpp pins this on a 200-seed corpus).
//
// Racers are anytime-raced against SolverBudget's deadline at racer
// granularity: each racer runs to its own local optimum, and remaining
// racers are skipped once the deadline has passed (the incumbent so far is
// returned). Results are deterministic for a given instance — the facility
// seeding derives its randomness from the instance itself, never from wall
// clock or thread identity — so engine artifacts stay byte-identical.
#pragma once

#include "solver/solver.hpp"

namespace bbng {

class PortfolioSolver final : public BestResponseBackend {
 public:
  PortfolioSolver() : BestResponseBackend("portfolio", {.normalizes_degree = true}) {}

  [[nodiscard]] std::string_view description() const noexcept override {
    return "races swap descent, greedy construction, and a facility-seeded start "
           "(Thm 2.1 reduction backwards); returns the best incumbent, never worse "
           "than the swap baseline";
  }

 private:
  /// `budget.deadline_seconds` skips not-yet-started racers once exceeded;
  /// `budget.node_limit` is unused (racers are polynomial), and so are
  /// `pool` and `state`.
  [[nodiscard]] SolverResult search(const Digraph& g, Vertex player, CostVersion version,
                                    const SolverBudget& budget, std::uint32_t cap,
                                    ThreadPool* pool, StateTable* state) const override;
};

}  // namespace bbng
