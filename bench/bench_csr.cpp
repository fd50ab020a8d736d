// Experiment — CSR graph core vs vector core, and a large-n BFS + delta-probe smoke.
//
// Two measurements back the CSR refactor:
//
//  1. Small-n corpus (default): rerun the delta-evaluation sweep of
//     bench_delta_eval on the same three instance families, but with BOTH
//     instantiations of the incremental oracle — DeltaEvaluatorT<UGraph>
//     (vector core) and DeltaEvaluatorT<CsrUGraph> (CSR core) — verifying
//     bit-identical cost checksums and reporting the wall-clock ratio. The
//     claim is "no regression" (speedup ≥ ~1×), not a big win: at bench
//     sizes both cores fit in cache and the work is repair-bound.
//
//  2. Large-n smoke (--large-n S): a S×S grid (S=1000 → n=10⁶) through
//     repeated BfsRunner queries on both cores (identical aggregates) and
//     CSR delta-evaluator head probes, timing each query at production
//     scale. CI runs it under an address-space ceiling.
//
// scripts/run_bench.py turns the CSV into BENCH_csr.json so both claims are
// tracked across PRs, not asserted from memory.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "constructions/spider.hpp"
#include "constructions/unit_budget.hpp"
#include "game/strategy_eval.hpp"
#include "graph/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"

namespace bbng {
namespace {

struct SweepResult {
  std::uint64_t checksum = 0;   ///< sum of all swap costs (order-independent)
  std::uint64_t evaluated = 0;  ///< candidate swaps scored
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

/// Score every single-head swap of every sampled player through the
/// incremental oracle instantiated on `GraphT`.
template <class GraphT>
SweepResult delta_sweep(const Digraph& g, const std::vector<Vertex>& players,
                        CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  SweepResult result;
  Timer timer;
  std::vector<bool> used(n);
  for (const Vertex u : players) {
    DeltaEvaluatorT<GraphT> eval(g, u, version);
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
  }
  result.ms = timer.elapsed_millis();
  return result;
}

/// Unit-budget cycle-with-trees of ≈ n vertices (matches bench_delta_eval).
Digraph make_cycle_with_trees(std::uint32_t n) {
  const std::uint32_t cycle_len = std::max(3U, n / 4);
  return cycle_with_uniform_leaves(cycle_len, 3);
}

void run_small_corpus(std::int64_t min_n, std::int64_t max_n, std::uint32_t want_players,
                      Rng& rng, bench::Checker& check, bool csv) {
  bench::banner("CSR core vs vector core: incremental swap sweeps (bit-identical checksums)");
  Table table({"family", "n", "version", "swaps", "vector_ms", "csr_ms", "speedup"});

  for (std::int64_t size = min_n; size <= max_n; size *= 2) {
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
      const std::vector<Vertex> players = sample_players(family.graph, want_players);
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        const SweepResult vec = delta_sweep<UGraph>(family.graph, players, version);
        const SweepResult csr = delta_sweep<CsrUGraph>(family.graph, players, version);
        check.expect(vec.checksum == csr.checksum,
                     cat(family.name, " n=", n, " ", to_string(version),
                         " checksum vector==csr"));
        check.expect(vec.evaluated == csr.evaluated,
                     cat(family.name, " n=", n, " identical candidate count"));
        const double speedup = csr.ms > 0.0 ? vec.ms / csr.ms : 0.0;
        table.new_row()
            .add(family.name)
            .add(family.graph.num_vertices())
            .add(to_string(version))
            .add(vec.evaluated)
            .add(vec.ms, 3)
            .add(csr.ms, 3)
            .add(speedup, 2);
      }
    }
  }
  table.print(std::cout, csv);
}

void run_large_n(std::uint32_t side, bench::Checker& check, bool csv) {
  bench::banner(cat("Large-n smoke: ", side, "x", side, " grid, BFS + delta probes"));
  const UGraph grid = grid_graph(side, side);
  const CsrUGraph csr(grid);
  const std::uint32_t n = grid.num_vertices();
  Table table({"phase", "n", "queries", "ms_per_query"});

  // Phase 1: repeated single-source BFS through one runner, on each core.
  BfsRunner runner(n);
  runner.run(csr, 0);
  check.expect(runner.reached() == n, "grid is connected");
  constexpr int kQueries = 8;
  // Stride sources across the grid deterministically.
  const auto source = [n](int q) {
    return static_cast<Vertex>((static_cast<std::uint64_t>(q) * 2654435761ULL) % n);
  };
  std::uint64_t csr_sum = 0;
  Timer bfs_timer;
  for (int q = 0; q < kQueries; ++q) {
    runner.run(csr, source(q));
    csr_sum += runner.sum_dist();
  }
  const double bfs_ms = bfs_timer.elapsed_millis() / kQueries;
  table.new_row().add("csr_bfs").add(n).add(static_cast<std::uint64_t>(kQueries)).add(bfs_ms, 2);

  // Cross-core anchor: the vector core must agree on the aggregates.
  std::uint64_t vec_sum = 0;
  Timer vec_timer;
  for (int q = 0; q < kQueries; ++q) {
    runner.run(grid, source(q));
    vec_sum += runner.sum_dist();
  }
  const double vec_ms = vec_timer.elapsed_millis() / kQueries;
  check.expect(vec_sum == csr_sum, "large-n BFS aggregates agree across cores");
  table.new_row()
      .add("vector_bfs")
      .add(n)
      .add(static_cast<std::uint64_t>(kQueries))
      .add(vec_ms, 2);

  // Phase 2: a delta scan at n = 10^6 — orient the grid so every vertex
  // owns its arcs, pick a strided player, and probe head swaps through the
  // CSR delta evaluator.
  const Digraph oriented = orient_with_positive_outdegree(grid);
  const std::vector<Vertex> players = sample_players(oriented, 1);
  check.expect(!players.empty(), "oriented grid has a positive-budget player");
  if (!players.empty()) {
    const Vertex player = players.front();
    CsrDeltaEvaluator eval(oriented, player, CostVersion::Sum);
    const std::vector<Vertex> strategy = eval.current_strategy();
    constexpr std::uint32_t kProbes = 64;
    const std::uint32_t stride = std::max(1U, n / kProbes);
    std::uint64_t probe_checksum = 0;
    std::uint64_t probes = 0;
    Timer probe_timer;
    eval.remove_head(strategy.front());
    for (Vertex t = 0; t < n && probes < kProbes; t += stride) {
      if (t == player || eval.has_head(t)) continue;
      probe_checksum += eval.cost_with_head(t);
      ++probes;
    }
    eval.add_head(strategy.front());
    const double probe_ms = probes > 0 ? probe_timer.elapsed_millis() / probes : 0.0;
    check.expect(probes > 0, "delta scan probed some targets");
    check.expect(probe_checksum > 0, "delta scan produced finite costs");
    table.new_row().add("csr_delta_probe").add(n).add(probes).add(probe_ms, 2);
  }
  table.print(std::cout, csv);
}

int run(int argc, const char** argv) {
  Cli cli("bench_csr",
          "CSR vs vector graph core: differential swap sweeps and a large-n BFS smoke");
  const auto flags = bench::add_common_flags(cli);
  const auto min_n = cli.add_int("min-n", 128, "smallest instance size (doubles upward)");
  const auto max_n = cli.add_int("max-n", 1024, "largest instance size");
  const auto want_players = cli.add_int("players", 24, "players sampled per instance");
  const auto large_n =
      cli.add_int("large-n", 0, "grid side for the large-n smoke (1000 -> n=10^6); 0 skips it");
  cli.parse(argc, argv);
  bench::apply_common_flags(flags);
  bench::Checker check;
  Rng rng(static_cast<std::uint64_t>(*flags.seed));

  if (*max_n >= *min_n) {
    run_small_corpus(*min_n, *max_n, static_cast<std::uint32_t>(*want_players), rng, check,
                     *flags.csv);
  }
  if (*large_n > 0) {
    run_large_n(static_cast<std::uint32_t>(*large_n), check, *flags.csv);
  }

  std::cout << "\nEngineering claim (not a paper claim): the CSR core serves the same "
               "queries from contiguous rows — identical results and no small-n "
               "regression.\n";
  return check.exit_code();
}

}  // namespace
}  // namespace bbng

int main(int argc, const char** argv) { return bbng::run(argc, argv); }
