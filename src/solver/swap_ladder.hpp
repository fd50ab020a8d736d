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
  SwapLadderSolver() : BestResponseBackend("swap", {.normalizes_degree = true}) {}

  [[nodiscard]] std::string_view description() const noexcept override {
    return "the classic ladder: exact enumeration when the candidate count fits the "
           "node limit, else greedy + swap descent (bit-compatible legacy default)";
  }

  /// The ladder has no preemption point; deadlines would be silent no-ops,
  /// so validation layers reject them for this backend.
  [[nodiscard]] bool supports_deadline() const noexcept override { return false; }

 private:
  /// `budget.node_limit` is the legacy exact-enumeration candidate cap,
  /// taken verbatim — 0 disables the exact path (callers wanting the legacy
  /// default pass 2'000'000, BestResponseSolver's default exact_limit).
  /// `pool` parallelises the enumeration. `state` is unused.
  [[nodiscard]] SolverResult search(const Digraph& g, Vertex player, CostVersion version,
                                    const SolverBudget& budget, std::uint32_t cap,
                                    ThreadPool* pool, StateTable* state) const override;
};

}  // namespace bbng
