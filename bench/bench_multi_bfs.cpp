// Experiment — batched multi-source BFS vs per-seed sweeps, and the Nash
// audit it was built for.
//
// Three measurements back the MultiBfs engine (graph/multi_bfs.hpp):
//
//  1. Small-n corpus (default): all-vertex aggregate sweeps on the three
//     instance families of bench_csr, batched vs per-seed BfsRunner runs,
//     with bit-identical aggregate checksums. The headline metric is work,
//     not wall time (CI runners are 1-2 cores): `settled` counts the
//     (lane, vertex) pairs a per-seed sweep scans one row each for, so
//     settled / row_scans is the row-scan saving of lane packing.
//
//  2. Nash audit (--audit-n N): verify_nash_equilibrium with the "swap"
//     backend on a paper-regime random-budget instance (σ = 2n), batched
//     prepass vs a bench-local loop that solves every player with the same
//     backend, demanding an identical regret report and — at
//     N ≥ 512, the acceptance regime — a ≥ 8× row-scan saving reported by
//     the prepass counters. N must exceed 64: up to there the audit reads
//     its current costs off its StateTable, runs no prepass, and the
//     counters would read 0, so such an N is rejected.
//
//  3. Large-n smoke (--large-n N): a 64-source batch on a sparse connected
//     random graph at N vertices (10⁶ in CI) against 64 per-seed runs,
//     proving the lanes stay bit-identical and the saving survives at
//     scale.
//
// scripts/run_bench.py --multi-bfs-output turns the CSV into
// BENCH_multi_bfs.json so the claims are tracked across PRs.
#include <algorithm>
#include <array>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "constructions/spider.hpp"
#include "constructions/unit_budget.hpp"
#include "game/equilibrium.hpp"
#include "graph/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"
#include "graph/word_bfs.hpp"
#include "solver/registry.hpp"

namespace bbng {
namespace {

struct SweepMeasurement {
  std::uint64_t checksum = 0;  ///< order-independent fold of all aggregates
  MultiBfsStats stats;
  double ms = 0.0;
};

std::uint64_t fold(const BfsAggregates& agg) {
  return agg.sum_dist + agg.max_dist + agg.reached;
}

/// All-vertex batched sweep on the CSR core (the audit's configuration).
SweepMeasurement batched_sweep(const CsrUGraph& g) {
  SweepMeasurement m;
  Timer timer;
  CsrMultiBfs engine(g);
  std::vector<Vertex> sources(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  for (const BfsAggregates& agg : engine.run(sources)) m.checksum += fold(agg);
  m.ms = timer.elapsed_millis();
  m.stats = engine.stats();
  return m;
}

/// The per-seed witness: one BfsRunner run per vertex.
SweepMeasurement per_seed_sweep(const CsrUGraph& g) {
  SweepMeasurement m;
  Timer timer;
  BfsRunner runner(g.num_vertices());
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    runner.run(g, s);
    m.checksum += fold({runner.reached(), runner.max_dist(), runner.sum_dist()});
  }
  m.ms = timer.elapsed_millis();
  return m;
}

/// Unit-budget cycle-with-trees of ≈ n vertices (matches bench_csr).
Digraph make_cycle_with_trees(std::uint32_t n) {
  const std::uint32_t cycle_len = std::max(3U, n / 4);
  return cycle_with_uniform_leaves(cycle_len, 3);
}

void run_corpus(std::int64_t min_n, std::int64_t max_n, Rng& rng, bench::Checker& check,
                bool csv) {
  bench::banner("MultiBfs: all-vertex sweeps, batched vs per-seed (bit-identical checksums)");
  Table table({"family", "n", "sources", "sweeps", "row_scans", "settled", "scan_saving",
               "per_seed_ms", "batched_ms", "speedup"});

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
      const CsrUGraph g(family.graph.underlying());
      const SweepMeasurement batched = batched_sweep(g);
      const SweepMeasurement per_seed = per_seed_sweep(g);
      check.expect(batched.checksum == per_seed.checksum,
                   cat(family.name, " n=", g.num_vertices(), " aggregates batched==per_seed"));
      // `settled` IS the per-seed row-scan count, so the saving is exact.
      check.expect(batched.stats.settled >= batched.stats.row_scans,
                   cat(family.name, " n=", g.num_vertices(), " batching never adds row scans"));
      const double saving = batched.stats.row_scans > 0
                                ? static_cast<double>(batched.stats.settled) /
                                      static_cast<double>(batched.stats.row_scans)
                                : 0.0;
      const double speedup = batched.ms > 0.0 ? per_seed.ms / batched.ms : 0.0;
      table.new_row()
          .add(family.name)
          .add(g.num_vertices())
          .add(static_cast<std::uint64_t>(g.num_vertices()))
          .add(batched.stats.sweeps)
          .add(batched.stats.row_scans)
          .add(batched.stats.settled)
          .add(saving, 2)
          .add(per_seed.ms, 3)
          .add(batched.ms, 3)
          .add(speedup, 2);
    }
  }
  table.print(std::cout, csv);
}

/// The audit without its prepass: every player solved with the named
/// backend, one full current-cost BFS per solve, the regret report folded
/// as verify_nash_equilibrium folds it. The per-seed side of run_audit.
NashReport per_player_audit(const Digraph& g, CostVersion version, const std::string& solver) {
  const BestResponseBackend& backend = find_solver(solver);
  NashReport report;
  report.stable = true;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const SolverResult result = backend.solve(g, u, version);
    if (!result.improves()) continue;
    if (report.stable) {
      report.stable = false;
      report.deviator = u;
      report.improving_strategy = result.strategy;
      report.old_cost = result.current_cost;
      report.new_cost = result.cost;
    }
    report.epsilon = std::max(report.epsilon, result.current_cost - result.cost);
  }
  return report;
}

void run_audit(std::uint32_t n, Rng& rng, bench::Checker& check, bool csv) {
  bench::banner(cat("Nash audit at n=", n, ": batched current-cost prepass vs per-seed (swap ",
                    "backend, random budgets sigma=2n)"));
  Table table({"audit_n", "version", "skipped", "sweeps", "row_scans", "settled", "scan_saving",
               "per_seed_ms", "batched_ms", "speedup"});

  const Digraph g = random_profile(random_budgets(n, 2ULL * n, rng), rng);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    Timer batched_timer;
    const NashReport batched = verify_nash_equilibrium(g, version, {}, "swap");
    const double batched_ms = batched_timer.elapsed_millis();
    Timer per_seed_timer;
    const NashReport per_seed = per_player_audit(g, version, "swap");
    const double per_seed_ms = per_seed_timer.elapsed_millis();

    // The regret report must be bit-identical to solving every player; the
    // prepass only skips players whose current cost equals a provable lower
    // bound.
    check.expect(batched.stable == per_seed.stable,
                 cat(to_string(version), " verdict batched==per_seed"));
    check.expect(batched.epsilon == per_seed.epsilon,
                 cat(to_string(version), " epsilon batched==per_seed"));
    check.expect(batched.stable == per_seed.stable &&
                     (batched.stable ||
                      (batched.deviator == per_seed.deviator &&
                       batched.improving_strategy == per_seed.improving_strategy &&
                       batched.old_cost == per_seed.old_cost &&
                       batched.new_cost == per_seed.new_cost)),
                 cat(to_string(version), " regret report batched==per_seed"));

    const double saving = batched.prepass.row_scans > 0
                              ? static_cast<double>(batched.prepass.settled) /
                                    static_cast<double>(batched.prepass.row_scans)
                              : 0.0;
    // Acceptance regime: at n ≥ 512 the paper-regime instance (σ = 2n keeps
    // the diameter small) must save ≥ 8× row scans over n per-seed runs.
    if (n >= 512) {
      check.expect(saving >= 8.0,
                   cat(to_string(version), " prepass row-scan saving >= 8x (got ",
                       saving, "x)"));
    }
    const double speedup = batched_ms > 0.0 ? per_seed_ms / batched_ms : 0.0;
    table.new_row()
        .add(n)
        .add(to_string(version))
        .add(batched.players_skipped)
        .add(batched.prepass.sweeps)
        .add(batched.prepass.row_scans)
        .add(batched.prepass.settled)
        .add(saving, 2)
        .add(per_seed_ms, 3)
        .add(batched_ms, 3)
        .add(speedup, 2);
  }
  table.print(std::cout, csv);
}

void run_large_n(std::uint32_t n, Rng& rng, bench::Checker& check, bool csv) {
  bench::banner(cat("Large-n smoke: 64-source batch on a sparse connected graph, n=", n));
  // Tree + n/2 extra edges: diameter O(log n), the small-diameter regime
  // lane packing is built for, in O(n) generation time.
  const UGraph g = sparse_connected_ugraph(n, n / 2, rng);
  const CsrUGraph csr(g);
  Table table({"phase", "n", "sources", "row_scans", "settled", "scan_saving", "ms"});

  std::array<Vertex, MultiBfs::kLanes> sources{};
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<Vertex>((static_cast<std::uint64_t>(i) * 2654435761ULL) % n);
  }

  CsrMultiBfs engine(csr);
  std::array<BfsAggregates, MultiBfs::kLanes> batched{};
  Timer batched_timer;
  engine.run_batch(std::span<const Vertex>(sources), std::span<BfsAggregates>(batched));
  const double batched_ms = batched_timer.elapsed_millis();

  const MultiBfsStats stats = engine.stats();
  const double saving = stats.row_scans > 0 ? static_cast<double>(stats.settled) /
                                                  static_cast<double>(stats.row_scans)
                                            : 0.0;
  check.expect(saving >= 2.0, cat("large-n row-scan saving >= 2x (got ", saving, "x)"));
  table.new_row()
      .add("batched_64")
      .add(n)
      .add(static_cast<std::uint64_t>(sources.size()))
      .add(stats.row_scans)
      .add(stats.settled)
      .add(saving, 2)
      .add(batched_ms, 2);

  // Per-seed witness: 64 independent BfsRunner runs, bit-identical lanes.
  Timer per_seed_timer;
  BfsRunner runner(n);
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    runner.run(csr, sources[i]);
    if (runner.reached() != batched[i].reached || runner.max_dist() != batched[i].max_dist ||
        runner.sum_dist() != batched[i].sum_dist) {
      ++mismatches;
    }
  }
  const double per_seed_ms = per_seed_timer.elapsed_millis();
  check.expect(mismatches == 0, "large-n lanes match 64 per-seed runs bit-for-bit");
  table.new_row()
      .add("per_seed_64")
      .add(n)
      .add(static_cast<std::uint64_t>(sources.size()))
      .add(stats.settled)  // per-seed scans one row per settled pair
      .add(stats.settled)
      .add(1.0, 2)
      .add(per_seed_ms, 2);
  table.print(std::cout, csv);
}

int run(int argc, const char** argv) {
  Cli cli("bench_multi_bfs",
          "Batched multi-source BFS vs per-seed sweeps, and the batched Nash audit");
  const auto flags = bench::add_common_flags(cli);
  const auto min_n = cli.add_int("min-n", 128, "smallest corpus instance (doubles upward)");
  const auto max_n = cli.add_int("max-n", 1024, "largest corpus instance");
  const auto audit_n =
      cli.add_int("audit-n", 0,
                  "Nash audit instance size, above 64 (512 = acceptance regime); 0 skips");
  const auto large_n =
      cli.add_int("large-n", 0, "vertex count for the large-n smoke (10^6 in CI); 0 skips");
  cli.parse(argc, argv);
  if (*audit_n > 0 && *audit_n <= kWordBfsLimit) {
    std::cerr << "error: --audit-n " << *audit_n << " must exceed the " << kWordBfsLimit
              << "-vertex limit: audits of n <= " << kWordBfsLimit
              << " take their costs off a StateTable and run no batched prepass, so sweeps, "
                 "row_scans, settled and scan_saving would read 0\n";
    return 2;
  }
  bench::apply_common_flags(flags);
  bench::Checker check;
  // One stream per section, each derived from --seed alone, so a section's
  // instances do not depend on which other sections ran or at what sizes.
  Rng streams(static_cast<std::uint64_t>(*flags.seed));
  Rng corpus_rng = streams.split();
  Rng audit_rng = streams.split();
  Rng large_rng = streams.split();

  if (*max_n >= *min_n) {
    run_corpus(*min_n, *max_n, corpus_rng, check, *flags.csv);
  }
  if (*audit_n > 0) {
    run_audit(static_cast<std::uint32_t>(*audit_n), audit_rng, check, *flags.csv);
  }
  if (*large_n > 0) {
    run_large_n(static_cast<std::uint32_t>(*large_n), large_rng, check, *flags.csv);
  }

  std::cout << "\nEngineering claim (not a paper claim): packing 64 BFS sources into "
               "per-vertex lane masks returns bit-identical aggregates while scanning "
               "each adjacency row once per active level instead of once per source.\n";
  return check.exit_code();
}

}  // namespace
}  // namespace bbng

int main(int argc, const char** argv) { return bbng::run(argc, argv); }
