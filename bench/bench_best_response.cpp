// Experiment E1 — Theorem 2.1: best response is NP-hard; solver ladder.
//
// Part 1: the reduction — exact best response of the added player equals the
//         exact k-center (MAX) / k-median (SUM) optimum on random graphs.
// Part 2: exponential scaling of exact search in the budget b (candidate
//         count C(n-1, b)) vs the polynomial greedy+swap heuristic, with the
//         heuristic's optimality gap.
#include <iostream>

#include "bench_common.hpp"
#include "facility/kmedian.hpp"
#include "facility/reduction.hpp"
#include "game/best_response.hpp"
#include "graph/generators.hpp"
#include "util/combinatorics.hpp"

namespace bbng {
namespace {

int run(int argc, const char** argv) {
  Cli cli("bench_best_response",
          "Theorem 2.1: k-center/k-median ⇔ best response; exact-vs-heuristic ladder");
  const auto flags = bench::add_common_flags(cli);
  const auto red_n = cli.add_int("reduction-n", 14, "|V(H)| in the reduction experiment");
  const auto scaling_n = cli.add_int("scaling-n", 22, "players in the scaling experiment");
  cli.parse(argc, argv);
  bench::apply_common_flags(flags);
  bench::Checker check;

  bench::banner("Theorem 2.1 — facility optima via exact best response");
  Table red({"k", "version", "facility_opt", "via_best_response", "match"});
  Rng rng(static_cast<std::uint64_t>(*flags.seed));
  const UGraph h = connected_erdos_renyi(static_cast<std::uint32_t>(*red_n), 0.18, rng);
  for (const std::uint32_t k : {1U, 2U, 3U, 4U}) {
    for (const CostVersion version : {CostVersion::Max, CostVersion::Sum}) {
      const FacilitySolution direct = version == CostVersion::Max
                                          ? exact_kcenter(h, k)
                                          : exact_kmedian(h, k);
      const FacilitySolution via_br = solve_facility_via_best_response(h, k, version);
      const bool match = direct.objective == via_br.objective;
      check.expect(match, cat("reduction k=", k, " ", to_string(version)));
      red.new_row()
          .add(k)
          .add(to_string(version) == "MAX" ? "MAX/k-center" : "SUM/k-median")
          .add(direct.objective)
          .add(via_br.objective)
          .add(match ? "yes" : "NO");
    }
  }
  red.print(std::cout, *flags.csv);

  bench::banner("Solver ladder — exact cost vs heuristic cost vs time (SUM)");
  Table ladder({"budget b", "candidates C(n-1,b)", "exact_us", "heuristic_us",
                "exact_cost", "heuristic_cost", "gap%"});
  const auto n = static_cast<std::uint32_t>(*scaling_n);
  for (const std::uint32_t b : {1U, 2U, 3U, 4U, 5U, 6U}) {
    auto budgets = random_budgets(n, 2 * n, rng);
    budgets[0] = b;
    const Digraph g = random_profile(budgets, rng);
    const BestResponseSolver solver(CostVersion::Sum, 10'000'000);

    Timer exact_timer;
    const SolverResult exact = solver.exact(g, 0);
    const auto exact_us = exact_timer.elapsed_micros();

    Timer heur_timer;
    const SolverResult coarse = solver.greedy(g, 0);
    const SolverResult refined = solver.swap_improve(g, 0, coarse.strategy);
    const auto heur_us = heur_timer.elapsed_micros();
    const std::uint64_t heuristic_cost = std::min(coarse.cost, refined.cost);

    check.expect(heuristic_cost >= exact.cost, cat("b=", b, " heuristic ≥ exact"));
    const double gap = exact.cost == 0
                           ? 0.0
                           : 100.0 * (static_cast<double>(heuristic_cost) -
                                      static_cast<double>(exact.cost)) /
                                 static_cast<double>(exact.cost);
    ladder.new_row()
        .add(b)
        .add(binomial(n - 1, b))
        .add(exact_us)
        .add(heur_us)
        .add(exact.cost)
        .add(heuristic_cost)
        .add(gap, 2);
  }
  ladder.print(std::cout, *flags.csv);

  std::cout << "\nPaper claim (Theorem 2.1): computing a best response is NP-hard — "
               "the exact column grows with C(n-1,b) while the heuristic stays "
               "polynomial with a small optimality gap.\n";
  return check.exit_code();
}

}  // namespace
}  // namespace bbng

int main(int argc, const char** argv) { return bbng::run(argc, argv); }
