#include "game/equilibrium.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "game/cost.hpp"
#include "graph/bfs.hpp"
#include "graph/multi_bfs.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "solver/registry.hpp"

namespace bbng {

EquilibriumReport verify_equilibrium(const Digraph& g, CostVersion version,
                                     std::uint64_t exact_limit, ThreadPool* pool) {
  const BestResponseSolver solver(version, exact_limit);
  EquilibriumReport report;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const SolverResult br = solver.exact(g, u, pool);
    report.strategies_checked += br.evaluated;
    if (br.improves()) {
      report.stable = false;
      report.deviator = u;
      report.improving_strategy = br.strategy;
      report.old_cost = br.current_cost;
      report.new_cost = br.cost;
      return report;
    }
  }
  report.stable = true;
  return report;
}

std::vector<std::uint64_t> batched_current_costs(const Digraph& g, CostVersion version,
                                                 GraphCore core, ThreadPool* pool,
                                                 MultiBfsStats* stats) {
  if (g.num_vertices() == 0) return {};
  MultiBfsStats local;
  const UGraph underlying = g.underlying();
  std::vector<BfsAggregates> aggs;
  if (core == GraphCore::kCsr) {
    const CsrUGraph csr(underlying);
    aggs = all_sources_aggregates(csr, pool, &local);
  } else {
    aggs = all_sources_aggregates(underlying, pool, &local);
  }
  if (stats != nullptr) *stats += local;
  return costs_from_aggregates(underlying, aggs, version);
}

NashReport verify_nash_equilibrium(const Digraph& g, CostVersion version,
                                   const SolverBudget& budget, const std::string& solver,
                                   ThreadPool* pool,
                                   const std::vector<std::uint32_t>* budget_caps) {
  const BestResponseBackend& backend = find_solver(solver);
  const std::uint32_t n = g.num_vertices();
  if (budget_caps != nullptr) BBNG_REQUIRE(budget_caps->size() == n);
  static const obs::HistogramId kAuditHist = obs::register_histogram("audit.nash");
  obs::ScopedTimer span(kAuditHist, "audit.nash");
  span.arg("solver", solver);
  span.arg("players", std::uint64_t{n});
  NashReport report;
  report.stable = true;
  report.certified = true;

  // Current-cost prepass: every player's current cost is a property
  // of the ONE shared underlying graph (unlike the per-player solves, whose
  // stripped base graphs all differ), so ⌈n/64⌉ packed MultiBfs sweeps
  // replace the n per-seed BFS runs the audit's cost lookups amount to.
  // A player whose current cost equals the trivial admissible lower bound
  // (solver.hpp: SUM ≥ n−1, MAX ≥ 1) cannot improve by any deviation — at
  // ANY budget cap — so it is certified with regret 0 without invoking the
  // backend at all.
  const std::vector<std::uint64_t> current_costs =
      batched_current_costs(g, version, budget.core, pool, &report.prepass);
  const std::uint64_t bound = trivial_cost_lower_bound(n, version);

  // No transposition cache: the canonical key embeds the player, and each
  // player is solved exactly once per scan, so nothing could ever hit. The
  // players share one StateTable of g instead.
  StateTable state(g);
  for (Vertex u = 0; u < n; ++u) {
    if (current_costs[u] == bound) {
      ++report.players_skipped;
      ++report.players_certified;
      continue;
    }
    SolverBudget player_budget = budget;
    if (budget_caps != nullptr) {
      // Cap 0 is SolverBudget's "derive from degree" sentinel, so a retired
      // player (budget 0) must already hold the empty strategy — churn's
      // leave event guarantees it.
      BBNG_REQUIRE((*budget_caps)[u] > 0 || g.out_degree(u) == 0);
      player_budget.budget_cap = (*budget_caps)[u];
    }
    const SolverResult result =
        backend.solve(g, u, version, player_budget, pool, /*cache=*/nullptr, &state);
    // The backend recomputes the current cost per player; it must agree with
    // the prepass bit-for-bit (same graph, same exact distances).
    BBNG_ASSERT(result.current_cost == current_costs[u]);
    if (result.optimal) ++report.players_certified;
    report.certified = report.certified && result.optimal;
    if (result.improves()) {
      const std::uint64_t regret = result.current_cost - result.cost;
      if (report.stable) {
        report.stable = false;
        report.deviator = u;
        report.improving_strategy = result.strategy;
        report.old_cost = result.current_cost;
        report.new_cost = result.cost;
      }
      report.epsilon = std::max(report.epsilon, regret);
    }
  }
  nash_audit_counters().publish(report);
  return report;
}

EquilibriumReport verify_swap_equilibrium(const Digraph& g, CostVersion version,
                                          ThreadPool* pool, bool incremental, GraphCore core) {
  const std::uint32_t n = g.num_vertices();
  obs::TraceSpan trace_span("audit.swap");
  trace_span.arg("players", std::uint64_t{n});
  ThreadPool serial(1);
  if (pool == nullptr) pool = &serial;

  // One evaluator per scanned player, players distributed over the pool.
  // Workers skip players above the smallest deviator found so far, so the
  // reported deviator is deterministic (the minimum) even though scan
  // completion order is not. A width-1 pool scans players in order and so
  // stops at the first deviator.
  std::atomic<std::uint32_t> best_vertex{n};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> avoided{0};
  std::mutex best_mutex;
  SolverResult deviation;
  parallel_for(*pool, n, [&](std::uint64_t index) {
    const auto u = static_cast<Vertex>(index);
    if (g.out_degree(u) == 0) return;
    if (u >= best_vertex.load(std::memory_order_relaxed)) return;
    SolverResult scan = scan_first_improving_swap(g, u, version, incremental, core);
    checked.fetch_add(scan.evaluated, std::memory_order_relaxed);
    avoided.fetch_add(scan.bfs_avoided, std::memory_order_relaxed);
    if (!scan.improves()) return;
    const std::lock_guard<std::mutex> lock(best_mutex);
    if (u < best_vertex.load(std::memory_order_relaxed)) {
      best_vertex.store(u, std::memory_order_relaxed);
      deviation = std::move(scan);
    }
  });

  EquilibriumReport report;
  report.strategies_checked = checked.load();
  report.bfs_avoided = avoided.load();
  report.stable = best_vertex.load() == n;
  if (!report.stable) {
    report.deviator = best_vertex.load();
    report.improving_strategy = std::move(deviation.strategy);
    report.old_cost = deviation.current_cost;
    report.new_cost = deviation.cost;
  }
  swap_audit_counters().publish(report);
  return report;
}

std::uint32_t count_lemma22_certified(const Digraph& g) {
  const UGraph u = g.underlying();
  const std::uint32_t n = g.num_vertices();
  std::uint32_t certified = 0;
  BfsRunner runner(n);
  for (Vertex v = 0; v < n; ++v) {
    runner.run(u, v);
    if (runner.reached() != n) continue;  // disconnected ⇒ lemma inapplicable
    const std::uint32_t locdiam = runner.max_dist();
    if (locdiam <= 1) {
      ++certified;
    } else if (locdiam == 2 && !g.in_brace(v)) {
      ++certified;
    }
  }
  return certified;
}

}  // namespace bbng
