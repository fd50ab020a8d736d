// Experiment — incremental vs naive swap evaluation (dynamic-BFS oracle).
//
// For each instance family (unit-budget cycles-with-trees, spiders, random
// budget vectors) and each cost version, score EVERY single-head swap of a
// deterministic sample of players twice: once with the naive per-candidate
// multi-source BFS (StrategyEvaluator) and once with the incremental
// DeltaEvaluator, verifying the cost checksums agree bit-for-bit and
// reporting the wall-clock ratio. This measures the PURE oracle. Production
// move sets score on TableEvaluator for n ≤ kTableEvaluatorLimit (2048) and
// reach the delta oracle only above it, so rows at n ≤ 2048 time no shipped
// path; CI runs this bench above the limit. The sub-1× rows (the
// cycle-with-trees leaves: no in-arcs, ≤1 head, where each probe re-settles
// the player's whole component) are scored by the CSR delta oracle too when
// n > 2048; no benchmark workload reaches that case.
// scripts/run_bench.py turns the CSV into BENCH_delta_eval.json so the
// speedup is tracked across PRs, not asserted from memory.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "constructions/spider.hpp"
#include "constructions/unit_budget.hpp"
#include "game/strategy_eval.hpp"
#include "graph/generators.hpp"

namespace bbng {
namespace {

struct SweepResult {
  std::uint64_t checksum = 0;   ///< sum of all swap costs (order-independent)
  std::uint64_t evaluated = 0;  ///< candidate swaps scored
  std::uint64_t avoided = 0;    ///< scored without a full BFS (delta only)
  double ms = 0.0;
};

/// Deterministic player sample: ~`want` positive-budget players, strided.
std::vector<Vertex> sample_players(const Digraph& g, std::uint32_t want) {
  const std::uint32_t n = g.num_vertices();
  std::vector<Vertex> players;
  const std::uint32_t step = std::max(1U, n / std::max(1U, want));
  for (Vertex u = 0; u < n && players.size() < want; u += step) {
    if (g.out_degree(u) > 0) players.push_back(u);
  }
  return players;
}

SweepResult naive_sweep(const Digraph& g, const std::vector<Vertex>& players,
                        CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  SweepResult result;
  Timer timer;
  StrategyEvaluator::Scratch scratch(n);
  std::vector<bool> used(n);
  std::vector<Vertex> trial;
  for (const Vertex u : players) {
    const StrategyEvaluator eval(g, u, version);
    const std::vector<Vertex>& strategy = eval.current_strategy();
    used.assign(n, false);
    for (const Vertex h : strategy) used[h] = true;
    used[u] = true;
    for (std::size_t i = 0; i < strategy.size(); ++i) {
      for (Vertex t = 0; t < n; ++t) {
        if (used[t]) continue;
        trial = strategy;
        trial[i] = t;
        result.checksum += eval.evaluate(trial, scratch);
        ++result.evaluated;
      }
    }
  }
  result.ms = timer.elapsed_millis();
  return result;
}

SweepResult delta_sweep(const Digraph& g, const std::vector<Vertex>& players,
                        CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  SweepResult result;
  Timer timer;
  std::vector<bool> used(n);
  for (const Vertex u : players) {
    DeltaEvaluator eval(g, u, version);
    const std::vector<Vertex>& strategy = eval.current_strategy();
    used.assign(n, false);
    for (const Vertex h : strategy) used[h] = true;
    used[u] = true;
    for (std::size_t i = 0; i < strategy.size(); ++i) {
      const Vertex old_head = strategy[i];
      eval.remove_head(old_head);
      for (Vertex t = 0; t < n; ++t) {
        if (used[t]) continue;
        result.checksum += eval.cost_with_head(t);
        ++result.evaluated;
      }
      eval.add_head(old_head);
    }
    result.avoided += eval.bfs_avoided();
  }
  result.ms = timer.elapsed_millis();
  return result;
}

/// Unit-budget cycle-with-trees of ≈ n vertices (cycle of n/4, 3 leaves per
/// cycle vertex — every budget is 1).
Digraph make_cycle_with_trees(std::uint32_t n) {
  const std::uint32_t cycle_len = std::max(3U, n / 4);
  return cycle_with_uniform_leaves(cycle_len, 3);
}

int run(int argc, const char** argv) {
  Cli cli("bench_delta_eval",
          "incremental (dynamic-BFS) vs naive swap evaluation across instance families");
  const auto flags = bench::add_common_flags(cli);
  const auto min_n = cli.add_int("min-n", 128, "smallest instance size (doubles upward)");
  const auto max_n = cli.add_int("max-n", 1024, "largest instance size");
  const auto want_players = cli.add_int("players", 24, "players sampled per instance");
  cli.parse(argc, argv);
  bench::apply_common_flags(flags);
  bench::Checker check;
  Rng rng(static_cast<std::uint64_t>(*flags.seed));

  bench::banner("Incremental delta evaluator vs naive full-BFS swap scoring");
  Table table({"family", "n", "version", "swaps", "naive_ms", "incremental_ms", "speedup",
               "bfs_avoided_pct"});

  for (std::int64_t size = *min_n; size <= *max_n; size *= 2) {
    const auto n = static_cast<std::uint32_t>(size);
    struct Family {
      const char* name;
      Digraph graph;
    };
    std::vector<Family> families;
    families.push_back({"cycle_with_trees", make_cycle_with_trees(n)});
    families.push_back({"spider", spider_digraph(std::max(1U, (n - 1) / 3))});
    families.push_back({"random_budgets", random_profile(random_budgets(n, 2 * n, rng), rng)});

    for (const Family& family : families) {
      const std::vector<Vertex> players =
          sample_players(family.graph, static_cast<std::uint32_t>(*want_players));
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        const SweepResult naive = naive_sweep(family.graph, players, version);
        const SweepResult delta = delta_sweep(family.graph, players, version);
        check.expect(naive.checksum == delta.checksum,
                     cat(family.name, " n=", n, " ", to_string(version),
                         " checksum naive==incremental"));
        check.expect(naive.evaluated == delta.evaluated,
                     cat(family.name, " n=", n, " identical candidate count"));
        check.expect(delta.avoided > 0,
                     cat(family.name, " n=", n, " oracle served some queries"));
        const double speedup = delta.ms > 0.0 ? naive.ms / delta.ms : 0.0;
        const double avoided_pct =
            delta.evaluated > 0
                ? 100.0 * static_cast<double>(delta.avoided) /
                      static_cast<double>(delta.evaluated)
                : 0.0;
        table.new_row()
            .add(family.name)
            .add(family.graph.num_vertices())
            .add(to_string(version))
            .add(naive.evaluated)
            .add(naive.ms, 3)
            .add(delta.ms, 3)
            .add(speedup, 2)
            .add(avoided_pct, 1);
      }
    }
  }
  table.print(std::cout, *flags.csv);

  std::cout << "\nEngineering claim (not a paper claim): swap candidates differ from the "
               "incumbent by one arc, so the dynamic-BFS oracle re-settles only the region "
               "whose distances change — the speedup column should grow with n.\n";
  return check.exit_code();
}

}  // namespace
}  // namespace bbng

int main(int argc, const char** argv) { return bbng::run(argc, argv); }
