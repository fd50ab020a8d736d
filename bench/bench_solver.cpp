// Experiment — the best-response solver subsystem: certified branch-and-
// bound vs full enumeration, and the heuristic portfolio vs the optimum.
//
// For a corpus of random mixed-budget instances per (n, version), solve a
// deterministic sample of players four ways: full enumeration
// (BestResponseSolver::exact, the ground truth), ExactBranchAndBound,
// PortfolioSolver, and the plain swap-descent baseline. Checks: the B&B cost
// equals enumeration with the certificate set on EVERY query, and the
// portfolio is never worse than the swap baseline. Reported: search nodes
// explored/pruned vs enumeration candidates (the pruning power that makes
// certified Nash verification affordable), wall-clock per backend, and the
// exact-vs-portfolio / exact-vs-swap optimality gaps. Each instance's
// players with a positive budget are also solved the way a Nash audit
// solves them, once with no state table (bb_all_ms) and once over one
// StateTable of the instance (bb_state_ms); the two must return identical
// results.
// scripts/run_bench.py turns the CSV into BENCH_solver.json so the numbers
// are tracked across PRs, not asserted from memory.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "game/best_response.hpp"
#include "graph/generators.hpp"
#include "solver/registry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bbng {
namespace {

/// Random instance with budgets clamped to ≤ `max_b` so enumeration ground
/// truth stays affordable at every n in the sweep.
Digraph corpus_instance(std::uint32_t n, std::uint32_t max_b, Rng& rng) {
  const std::uint64_t sigma = n + rng.next_below(n);
  std::vector<std::uint32_t> budgets = random_budgets(n, sigma, rng);
  for (auto& b : budgets) b = std::min(b, max_b);
  return random_profile(budgets, rng);
}

int run(int argc, const char** argv) {
  Cli cli("bench_solver",
          "exact branch-and-bound vs enumeration, and the heuristic portfolio gap");
  const auto flags = bench::add_common_flags(cli);
  const auto min_n = cli.add_int("min-n", 10, "smallest instance size");
  const auto max_n = cli.add_int("max-n", 18, "largest instance size (steps of 4)");
  const auto instances = cli.add_int("instances", 100, "instances per (n, version)");
  const auto max_b = cli.add_int("max-b", 4, "budget clamp (enumeration cost cap)");
  cli.parse(argc, argv);
  bench::apply_common_flags(flags);
  bench::Checker check;

  const BestResponseBackend& exact_bb = find_solver("exact_bb");
  const BestResponseBackend& portfolio = find_solver("portfolio");

  bench::banner("Solver subsystem: certified B&B vs enumeration, portfolio gap");
  Table table({"n", "version", "queries", "enum_candidates", "bb_nodes", "bb_pruned",
               "prune_ratio", "enum_ms", "bb_ms", "bb_all_ms", "bb_state_ms", "portfolio_ms",
               "portfolio_gap_pct", "swap_gap_pct", "portfolio_optimal_pct"});

  for (std::int64_t size = *min_n; size <= *max_n; size += 4) {
    const auto n = static_cast<std::uint32_t>(size);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      Rng rng(static_cast<std::uint64_t>(*flags.seed) * 1000003 + n);
      const BestResponseSolver brute(version);
      std::uint64_t queries = 0;
      std::uint64_t enum_candidates = 0;
      std::uint64_t bb_nodes = 0;
      std::uint64_t bb_pruned = 0;
      std::uint64_t portfolio_optimal = 0;
      double enum_ms = 0;
      double bb_ms = 0;
      double bb_all_ms = 0;
      double bb_state_ms = 0;
      double portfolio_ms = 0;
      std::vector<double> portfolio_gaps;
      std::vector<double> swap_gaps;

      for (std::int64_t i = 0; i < *instances; ++i) {
        const Digraph g = corpus_instance(n, static_cast<std::uint32_t>(*max_b), rng);
        // One positive-budget player per instance, strided for determinism.
        Vertex u = static_cast<Vertex>(i) % n;
        while (g.out_degree(u) == 0) u = (u + 1) % n;
        ++queries;

        Timer timer;
        const SolverResult reference = brute.exact(g, u);
        enum_ms += timer.elapsed_millis();
        enum_candidates += reference.evaluated;

        timer.restart();
        const SolverResult bb = exact_bb.solve(g, u, version);
        bb_ms += timer.elapsed_millis();
        bb_nodes += bb.nodes_explored;
        bb_pruned += bb.nodes_pruned;
        check.expect(bb.optimal, cat("bb certificate n=", n, " q=", queries));
        check.expect(bb.cost == reference.cost,
                     cat("bb == enumeration n=", n, " q=", queries));

        // Every positive-budget player, without and then over one state table.
        std::vector<SolverResult> alone;
        timer.restart();
        for (Vertex p = 0; p < n; ++p) {
          if (g.out_degree(p) > 0) alone.push_back(exact_bb.solve(g, p, version));
        }
        bb_all_ms += timer.elapsed_millis();
        StateTable state(g);
        std::vector<SolverResult> shared;
        timer.restart();
        for (Vertex p = 0; p < n; ++p) {
          if (g.out_degree(p) > 0) {
            shared.push_back(exact_bb.solve(g, p, version, {}, nullptr, nullptr, &state));
          }
        }
        bb_state_ms += timer.elapsed_millis();
        for (std::size_t k = 0; k < alone.size(); ++k) {
          const SolverResult& a = alone[k];
          const SolverResult& b = shared[k];
          check.expect(a.strategy == b.strategy && a.cost == b.cost &&
                           a.current_cost == b.current_cost && a.optimal == b.optimal &&
                           a.lower_bound == b.lower_bound && a.nodes_explored == b.nodes_explored &&
                           a.nodes_pruned == b.nodes_pruned && a.evaluated == b.evaluated,
                       cat("state table == no table n=", n, " q=", queries, " k=", k));
        }

        timer.restart();
        const SolverResult heuristic = portfolio.solve(g, u, version);
        portfolio_ms += timer.elapsed_millis();
        const SolverResult swap_baseline = brute.swap_improve(g, u);
        check.expect(heuristic.cost <= swap_baseline.cost,
                     cat("portfolio <= swap baseline n=", n, " q=", queries));
        check.expect(heuristic.cost >= reference.cost,
                     cat("portfolio >= optimum n=", n, " q=", queries));
        if (heuristic.cost == reference.cost) ++portfolio_optimal;
        const auto gap_pct = [&](std::uint64_t cost) {
          return reference.cost > 0 ? 100.0 *
                                          (static_cast<double>(cost) -
                                           static_cast<double>(reference.cost)) /
                                          static_cast<double>(reference.cost)
                                    : 0.0;
        };
        portfolio_gaps.push_back(gap_pct(heuristic.cost));
        swap_gaps.push_back(gap_pct(swap_baseline.cost));
      }

      const double prune_ratio =
          bb_nodes > 0 ? static_cast<double>(enum_candidates) / static_cast<double>(bb_nodes)
                       : 0.0;
      table.new_row()
          .add(n)
          .add(to_string(version))
          .add(queries)
          .add(enum_candidates)
          .add(bb_nodes)
          .add(bb_pruned)
          .add(prune_ratio, 1)
          .add(enum_ms, 3)
          .add(bb_ms, 3)
          .add(bb_all_ms, 3)
          .add(bb_state_ms, 3)
          .add(portfolio_ms, 3)
          .add(summarize(portfolio_gaps).mean, 2)
          .add(summarize(swap_gaps).mean, 2)
          .add(100.0 * static_cast<double>(portfolio_optimal) / static_cast<double>(queries),
               1);
    }
  }
  table.print(std::cout, *flags.csv);

  std::cout << "\nEngineering claim (not a paper claim): the admissible savings/seed-distance "
               "bounds let the certified search close while expanding orders of magnitude "
               "fewer nodes than enumeration scores candidates — that is what makes "
               "verify_nash_equilibrium affordable beyond toy sizes. Wall-clock columns are "
               "honest only relative to the host block recorded by scripts/run_bench.py.\n";
  return check.exit_code();
}

}  // namespace
}  // namespace bbng

int main(int argc, const char** argv) { return bbng::run(argc, argv); }
