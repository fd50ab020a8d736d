// The solver ladder as a registry backend — the library's one ladder.
//
// Full enumeration (BestResponseSolver::exact) when the candidate count fits
// the limit, otherwise greedy construction refined by swap descent
// (greedy_swap_descent) and clamped so a heuristic never recommends a
// deviation worse than staying put. Every consumer that wants the ladder
// (the dynamics engine above all) calls this backend through the registry;
// it is the registry's conservative default.
#pragma once

#include "solver/solver.hpp"

namespace bbng {

class SwapLadderSolver final : public BestResponseBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "swap"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "the classic ladder: exact enumeration when the candidate count fits the "
           "node limit, else greedy + swap descent (bit-compatible legacy default)";
  }

  /// The ladder has no preemption point; deadlines would be silent no-ops,
  /// so validation layers reject them for this backend.
  [[nodiscard]] bool supports_deadline() const noexcept override { return false; }

  /// `budget.node_limit` is the legacy exact-enumeration candidate cap,
  /// taken verbatim — 0 disables the exact path (callers wanting the legacy
  /// default pass 2'000'000, BestResponseSolver's default exact_limit). The ladder has no
  /// preemption point, so `budget.deadline_seconds` is NOT honoured here;
  /// spec validation rejects a deadline aimed at this backend. `pool`
  /// parallelises the enumeration; `cache` is unused.
  [[nodiscard]] SolverResult solve(const Digraph& g, Vertex player, CostVersion version,
                                   const SolverBudget& budget = {}, ThreadPool* pool = nullptr,
                                   TranspositionCache* cache = nullptr) const override;
};

}  // namespace bbng
