// Differential tests for the incremental delta evaluator: on seeded random
// digraphs (mixed budget vectors, both cost versions) DeltaEvaluator must
// agree bit-for-bit with the naive per-candidate multi-source BFS of
// StrategyEvaluator — for every single-head swap of every player, for random
// head-set walks, and end-to-end through BestResponseSolver, the dynamics
// engine, and verify_swap_equilibrium with the oracle on vs off. The
// base-distance TableEvaluator is held to the same standard.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "game/best_response.hpp"
#include "game/churn.hpp"
#include "game/cost.hpp"
#include "game/dynamics.hpp"
#include "game/equilibrium.hpp"
#include "game/strategy_eval.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"
#include "obs/metrics.hpp"
#include "solver/registry.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

/// Random instance in the mixed-budget regime: n in [5, 14], σ in [n/2, 2n].
Digraph random_instance(std::uint32_t n, Rng& rng) {
  const std::uint64_t sigma = n / 2 + rng.next_below(3 * n / 2 + 1);
  return random_profile(random_budgets(n, sigma, rng), rng);
}

/// Cost of (heads \ {removed}) ∪ {added} with the head set restored after:
/// the probe every swap scan makes.
template <class Eval>
std::uint64_t swap_cost(Eval& eval, Vertex removed, Vertex added) {
  eval.remove_head(removed);
  const std::uint64_t cost = eval.cost_with_head(added);
  eval.add_head(removed);
  return cost;
}

/// Connected: the directed cycle plus n/4 random chords. Disconnected: paths
/// of five vertices, the last vertex isolated.
Digraph lane_test_graph(std::uint32_t n, bool connected, Rng& rng) {
  Digraph g(n);
  if (connected) {
    g = cycle_digraph(n);
    for (std::uint32_t k = 0; k < n / 4; ++k) {
      const auto a = static_cast<Vertex>(rng.next_below(n));
      const auto b = static_cast<Vertex>(rng.next_below(n));
      if (a != b && !g.has_arc(a, b)) g.add_arc(a, b);
    }
  } else {
    for (Vertex v = 0; v + 2 < n; ++v) {
      if (v % 5 != 4) g.add_arc(v, v + 1);
    }
  }
  return g;
}

TEST(DeltaEvalDifferential, EverySingleHeadSwapMatchesNaiveOn200Graphs) {
  Rng rng(9001);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 10);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        const StrategyEvaluator naive(g, u, version);
        StrategyEvaluator::Scratch scratch(n);
        DeltaEvaluator delta(g, u, version);
        ASSERT_EQ(delta.current_cost(), naive.current_cost())
            << "round " << round << " u " << u << " " << to_string(version);
        ASSERT_EQ(delta.current_cost(), vertex_cost(g, u, version));

        const std::vector<Vertex> strategy = naive.current_strategy();
        std::vector<bool> used(n, false);
        for (const Vertex h : strategy) used[h] = true;
        used[u] = true;
        std::vector<Vertex> trial;
        for (std::size_t i = 0; i < strategy.size(); ++i) {
          for (Vertex t = 0; t < n; ++t) {
            if (used[t]) continue;
            trial = strategy;
            trial[i] = t;
            ASSERT_EQ(swap_cost(delta, strategy[i], t), naive.evaluate(trial, scratch))
                << "round " << round << " u " << u << " swap " << strategy[i] << "->" << t
                << " " << to_string(version);
          }
        }
        // The query restored the incumbent head set.
        ASSERT_EQ(delta.cost(), naive.current_cost());
      }
    }
  }
}

TEST(DeltaEvalDifferential, RandomHeadSetWalkMatchesNaive) {
  // Drive the evaluator far away from the incumbent strategy (including the
  // empty set and heads that double as in-neighbours) and cross-check every
  // intermediate state against a from-scratch evaluation.
  Rng rng(9002);
  for (int round = 0; round < 25; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 8);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const Vertex u = static_cast<Vertex>(rng.next_below(n));
      const StrategyEvaluator naive(g, u, version);
      StrategyEvaluator::Scratch scratch(n);
      DeltaEvaluator delta(g, u, version);
      // The naive evaluator behind the head-set interface walks along.
      NaiveEvaluator wrapped(g, u, version);
      std::vector<Vertex> heads = naive.current_strategy();
      for (int step = 0; step < 120; ++step) {
        const auto t = static_cast<Vertex>(rng.next_below(n));
        const auto it = std::find(heads.begin(), heads.end(), t);
        if (it != heads.end()) {
          delta.remove_head(t);
          wrapped.remove_head(t);
          heads.erase(it);
        } else if (t != u) {
          delta.add_head(t);
          wrapped.add_head(t);
          heads.push_back(t);
        } else {
          continue;
        }
        ASSERT_EQ(wrapped.has_head(t), delta.has_head(t));
        ASSERT_EQ(delta.cost(), naive.evaluate(heads, scratch))
            << "round " << round << " step " << step << " " << to_string(version);
        ASSERT_EQ(wrapped.cost(), naive.evaluate(heads, scratch));
        // Probe a non-head target; the journaled trial must match the naive
        // extension cost and roll back without disturbing the current state.
        const auto probe = static_cast<Vertex>(rng.next_below(n));
        if (probe != u && std::find(heads.begin(), heads.end(), probe) == heads.end()) {
          heads.push_back(probe);
          ASSERT_EQ(delta.cost_with_head(probe), naive.evaluate(heads, scratch));
          ASSERT_EQ(wrapped.cost_with_head(probe), naive.evaluate(heads, scratch));
          heads.pop_back();
          ASSERT_EQ(delta.cost(), naive.evaluate(heads, scratch));
          ASSERT_FALSE(wrapped.has_head(probe)) << "a probe must not commit its head";
          ASSERT_EQ(wrapped.cost(), naive.evaluate(heads, scratch));
        }
      }
      EXPECT_EQ(wrapped.bfs_avoided(), 0U);
    }
  }
}

/// Player u's table must match from-scratch costs on every swap of the
/// incumbent, and on a random walk that removes heads out of insertion order
/// (rebuilding the cover stack above them). The table fills by one-word BFS
/// rows for n ≤ 64 and by lane sweeps above, so callers cover both sides.
void expect_table_matches_naive(const Digraph& g, Vertex u, CostVersion version, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  SCOPED_TRACE(testing::Message() << "n " << n << " u " << u << " " << to_string(version));
  const StrategyEvaluator naive(g, u, version);
  StrategyEvaluator::Scratch scratch(n);
  TableEvaluator table(g, u, version);
  ASSERT_EQ(table.current_cost(), naive.current_cost());
  std::vector<Vertex> heads = naive.current_strategy();
  std::vector<Vertex> trial;
  for (std::size_t i = 0; i < heads.size(); ++i) {
    for (Vertex t = 0; t < n; ++t) {
      if (t == u || std::find(heads.begin(), heads.end(), t) != heads.end()) continue;
      trial = heads;
      trial[i] = t;
      ASSERT_EQ(swap_cost(table, heads[i], t), naive.evaluate(trial, scratch));
    }
  }
  for (int step = 0; step < 30; ++step) {
    const auto t = static_cast<Vertex>(rng.next_below(n));
    if (t == u) continue;
    const auto it = std::find(heads.begin(), heads.end(), t);
    if (it != heads.end()) {
      table.remove_head(t);
      heads.erase(it);
      ASSERT_EQ(table.cost(), naive.evaluate(heads, scratch));
    } else {
      heads.push_back(t);
      ASSERT_EQ(table.cost_with_head(t), naive.evaluate(heads, scratch));
      table.add_head(t);
      ASSERT_EQ(table.cost(), naive.evaluate(heads, scratch));
    }
  }
}

TEST(DeltaEvalDifferential, TableEvaluatorMatchesNaiveOnSwapsAndWalks) {
  // The table evaluator scores from base distances alone, including on
  // disconnected instances, where MAX's κ comes from the component
  // representatives read off the table.
  Rng rng(9004);
  for (int round = 0; round < 60; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 10);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        ASSERT_NO_FATAL_FAILURE(expect_table_matches_naive(g, u, version, rng))
            << "round " << round;
      }
    }
  }

  // Across the word boundary (n ≤ 64 fills by one-word BFS, 65 by lane
  // sweeps), on instances built around each player u: random, brace-heavy,
  // u the head of every other vertex, u isolated, and a base of many
  // components.
  for (const std::uint32_t n : {63u, 64u, 65u}) {
    std::vector<Vertex> players{0};
    for (const Vertex u : {63u, n - 1}) {
      if (u < n && u != players.back()) players.push_back(u);
    }
    for (const Vertex u : players) {
      std::vector<Digraph> instances;
      instances.push_back(random_instance(n, rng));
      Digraph braces(n);
      for (Vertex v = 0; v + 1 < n; ++v) {
        braces.add_arc(v, v + 1);
        braces.add_arc(v + 1, v);
      }
      for (std::uint32_t k = 0; k < n / 4; ++k) {
        const auto a = static_cast<Vertex>(rng.next_below(n));
        const auto b = static_cast<Vertex>(rng.next_below(n));
        if (a == b || braces.has_arc(a, b) || braces.has_arc(b, a)) continue;
        braces.add_arc(a, b);
        braces.add_arc(b, a);
      }
      instances.push_back(braces);
      Digraph hub = lane_test_graph(n, /*connected=*/true, rng);
      for (Vertex w = 0; w < n; ++w) {
        if (w != u && !hub.has_arc(w, u)) hub.add_arc(w, u);
      }
      instances.push_back(hub);
      Digraph isolated = random_instance(n, rng);
      isolated.set_strategy(u, {});
      for (Vertex w = 0; w < n; ++w) {
        if (isolated.has_arc(w, u)) isolated.remove_arc(w, u);
      }
      instances.push_back(isolated);
      instances.push_back(lane_test_graph(n, /*connected=*/false, rng));
      for (std::size_t i = 0; i < instances.size(); ++i) {
        for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
          ASSERT_NO_FATAL_FAILURE(expect_table_matches_naive(instances[i], u, version, rng))
              << "boundary instance " << i;
        }
      }
    }
  }
}

TEST(DeltaEvalDifferential, TableEvaluatorCopiesScoreIndependently) {
  // A copy scores on its own state: probes on the copy after diverging head
  // edits, and on the original after the copy is gone, match from-scratch
  // costs. Exact enumeration on a wide pool walks each chunk on such a copy.
  Rng rng(9011);
  for (int round = 0; round < 30; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 10);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const auto u = static_cast<Vertex>(rng.next_below(n));
      const StrategyEvaluator naive(g, u, version);
      StrategyEvaluator::Scratch scratch(n);
      TableEvaluator eval(g, u, version);
      std::vector<Vertex> heads = naive.current_strategy();
      for (const Vertex h : heads) eval.remove_head(h);
      const Vertex first = u == 0 ? 1 : 0;
      {
        TableEvaluator copy = eval;
        copy.add_head(first);
        for (Vertex t = 0; t < n; ++t) {
          if (t == u || t == first) continue;
          const std::vector<Vertex> trial{first, t};
          ASSERT_EQ(copy.cost_with_head(t), naive.evaluate(trial, scratch))
              << "round " << round << " " << to_string(version);
        }
      }
      for (Vertex t = 0; t < n; ++t) {
        if (t == u) continue;
        const std::vector<Vertex> trial{t};
        ASSERT_EQ(eval.cost_with_head(t), naive.evaluate(trial, scratch))
            << "round " << round << " " << to_string(version);
      }
    }
  }
}

TEST(DeltaEvalDifferential, TableRowsMatchPerSeedBfsAcrossLaneBoundaries) {
  // Up to 64 vertices the table is filled by one word-parallel BFS per row;
  // above that by 64-lane packed sweeps over every vertex but the player, so
  // the player's position shifts the lane of every later vertex: put it at
  // lane 0, lane 63, lane 64 and the last vertex. On both paths every row
  // must equal 1 + the per-seed BFS distance on the stripped base (Cinf
  // across components), and building a table must move no bfs.multi.*
  // counter.
  Rng rng(9013);
  for (const std::uint32_t n : {2u, 3u, 63u, 64u, 65u, 129u}) {
    for (const bool connected : {true, false}) {
      const Digraph g = lane_test_graph(n, connected, rng);
      std::vector<Vertex> players;
      for (const Vertex u : {0u, 63u, 64u, n - 1}) {
        if (u < n && std::find(players.begin(), players.end(), u) == players.end()) {
          players.push_back(u);
        }
      }
      for (const Vertex u : players) {
        const obs::CounterFrame frame;
        const TableEvaluator table(g, u, CostVersion::Sum);
        for (const char* name :
             {"bfs.multi.sweeps", "bfs.multi.levels", "bfs.multi.row_scans", "bfs.multi.settled"}) {
          EXPECT_EQ(frame.value(name), 0u) << name << " n " << n << " u " << u;
        }
        const UGraph base = best_response_base(g, u);
        BfsRunner runner(n);
        for (Vertex t = 0; t < n; ++t) {
          if (t == u) continue;
          runner.run(base, t);
          const std::span<const std::uint32_t> dist = runner.dist();
          const std::span<const std::uint32_t> row = table.row(t);
          for (Vertex v = 0; v < n; ++v) {
            const std::uint64_t expected = dist[v] == kUnreachable ? cinf(n) : dist[v] + 1;
            ASSERT_EQ(row[v], expected) << "n " << n << " u " << u << " t " << t << " v " << v
                                        << (connected ? " connected" : " disconnected");
          }
        }
      }
    }
  }
  // The control: the same frame does see a published batch.
  if (obs::kCompiledIn && obs::enabled()) {
    const obs::CounterFrame frame;
    const CsrGraph csr(cycle_digraph(8));
    const CsrUGraph base = underlying_csr(csr, /*skip=*/0);
    CsrMultiBfs engine(base);
    const Vertex sources[] = {1, 2};
    BfsAggregates out[2];
    engine.run_batch(sources, out);
    EXPECT_EQ(frame.value("bfs.multi.sweeps"), 1u);
  }
}

/// The vector-core and CSR-core delta evaluators and the table evaluator of
/// one player, driven in lockstep: equal cost(), equal cost_with_head for
/// every target, after construction and after every step of a random
/// remove/add walk over the head set.
void expect_evaluators_agree(const Digraph& g, Vertex u, CostVersion version, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  SCOPED_TRACE(testing::Message() << "n " << n << " u " << u << " " << to_string(version));
  DeltaEvaluator vec(g, u, version);
  CsrDeltaEvaluator csr(g, u, version);
  TableEvaluator table(g, u, version);
  const auto expect_same_state = [&](int step) {
    const std::uint64_t cost = vec.cost();
    ASSERT_EQ(csr.cost(), cost) << "step " << step;
    ASSERT_EQ(table.cost(), cost) << "step " << step;
    for (Vertex t = 0; t < n; ++t) {
      if (t == u || vec.has_head(t)) continue;
      const std::uint64_t probed = vec.cost_with_head(t);
      ASSERT_EQ(csr.cost_with_head(t), probed) << "step " << step << " t " << t;
      ASSERT_EQ(table.cost_with_head(t), probed) << "step " << step << " t " << t;
    }
  };
  ASSERT_NO_FATAL_FAILURE(expect_same_state(-1));
  for (int step = 0; step < 24; ++step) {
    const auto t = static_cast<Vertex>(rng.next_below(n));
    if (t == u) continue;
    if (vec.has_head(t)) {
      vec.remove_head(t);
      csr.remove_head(t);
      table.remove_head(t);
    } else {
      vec.add_head(t);
      csr.add_head(t);
      table.add_head(t);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_state(step));
  }
}

TEST(DeltaEvalDifferential, FullSuperSourceRowAgreesAcrossEvaluators) {
  // Every other vertex is a seed, so the delta oracle's super-source row
  // holds n − 1 edges, all inserted after the base is built. Two ways to get
  // there: every other vertex points at the player, which also holds heads
  // (braces, so the seeds stay put through the walk); or the player's heads
  // are exactly the vertices that do not point at it (removing a head frees
  // a slot, and a probe or re-add fills it again).
  Rng rng(9031);
  for (const std::uint32_t n : {2u, 3u, 65u, 300u}) {
    for (const bool connected : {true, false}) {
      for (const Vertex u : {0u, n - 1}) {
        const std::uint32_t num_heads = std::min<std::uint32_t>(3, n - 1);
        std::vector<Vertex> heads;
        for (std::uint32_t k = 1; k <= num_heads; ++k) heads.push_back((u + k) % n);

        Digraph pointed_at = lane_test_graph(n, connected, rng);
        for (Vertex w = 0; w < n; ++w) {
          if (w != u && !pointed_at.has_arc(w, u)) pointed_at.add_arc(w, u);
        }
        for (const Vertex h : heads) {
          if (!pointed_at.has_arc(u, h)) pointed_at.add_arc(u, h);
        }

        Digraph completed = lane_test_graph(n, connected, rng);
        completed.set_strategy(u, heads);
        for (Vertex w = 0; w < n; ++w) {
          if (w == u) continue;
          const bool is_head = std::find(heads.begin(), heads.end(), w) != heads.end();
          if (is_head && completed.has_arc(w, u)) completed.remove_arc(w, u);
          if (!is_head && !completed.has_arc(w, u)) completed.add_arc(w, u);
        }

        for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
          ASSERT_NO_FATAL_FAILURE(expect_evaluators_agree(pointed_at, u, version, rng));
          ASSERT_NO_FATAL_FAILURE(expect_evaluators_agree(completed, u, version, rng));
        }
      }
    }
  }
}

/// Every probe of `table`'s present head set (the heads `heads`, as
/// `naive` scores them): each single cost_with_head must equal a scalar
/// recompute from row()/cover() and the from-scratch cost, and every
/// batched cost_with_heads over a shuffled candidate list must return the
/// same costs slot for slot, with and without a fold, the fold being the
/// elementwise min over every probed row. Returns how many of the probes
/// seed every base component (MAX cost below Cinf).
std::uint32_t check_table_probes(TableEvaluator& table, const StrategyEvaluator& naive,
                                 std::vector<Vertex> heads, CostVersion version, Rng& rng) {
  const std::uint32_t n = table.num_vertices();
  const Vertex u = table.player();
  const std::uint64_t inf = cinf(n);
  StrategyEvaluator::Scratch scratch(n);
  const std::span<const std::uint32_t> cover = table.cover();
  std::vector<Vertex> candidates;
  std::vector<std::uint64_t> expected(n, 0);
  std::uint32_t seeding = 0;
  for (Vertex t = 0; t < n; ++t) {
    if (t == u || table.has_head(t)) continue;
    candidates.push_back(t);
    const std::span<const std::uint32_t> row = table.row(t);
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (Vertex v = 0; v < n; ++v) {
      sum += std::min(cover[v], row[v]);
      max = std::max<std::uint64_t>(max, std::min(cover[v], row[v]));
    }
    heads.push_back(t);
    expected[t] = naive.evaluate(heads, scratch);
    heads.pop_back();
    // SUM is the plain sum; MAX is the max unless some vertex is
    // unreached, when κ (which the scalar pass cannot see) decides.
    if (version == CostVersion::Sum) {
      EXPECT_EQ(expected[t], sum) << "n " << n << " u " << u << " t " << t;
    } else if (max < inf) {
      EXPECT_EQ(expected[t], max) << "n " << n << " u " << u << " t " << t;
    }
    if (expected[t] < inf) ++seeding;
    EXPECT_EQ(table.cost_with_head(t), expected[t])
        << "n " << n << " u " << u << " t " << t << " " << to_string(version);
  }
  std::vector<std::uint64_t> costs(candidates.size());
  std::vector<std::uint32_t> fold(n);
  for (int round = 0; round < 3; ++round) {
    rng.shuffle(candidates);
    for (Vertex v = 0; v < n; ++v) fold[v] = static_cast<std::uint32_t>(rng.next_below(inf + 1));
    std::vector<std::uint32_t> folded = fold;
    for (const Vertex t : candidates) {
      const std::span<const std::uint32_t> row = table.row(t);
      for (Vertex v = 0; v < n; ++v) folded[v] = std::min(folded[v], row[v]);
    }
    const std::uint64_t evaluations = table.evaluations();
    table.cost_with_heads(candidates, costs, fold);
    EXPECT_EQ(table.evaluations(), evaluations + candidates.size());
    EXPECT_EQ(fold, folded) << "n " << n << " u " << u << " " << to_string(version);
    std::fill(costs.begin(), costs.end(), 0);
    table.cost_with_heads(candidates, costs);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(costs[i], expected[candidates[i]])
          << "n " << n << " u " << u << " t " << candidates[i] << " " << to_string(version);
    }
    table.cost_with_heads(candidates, costs, fold);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(costs[i], expected[candidates[i]])
          << "n " << n << " u " << u << " t " << candidates[i] << " folded";
    }
  }
  return seeding;
}

TEST(DeltaEvalDifferential, TableProbeKernelsMatchScalarAcrossVectorTails) {
  // The probe kernels are cloned for wide vectors, so n walks across every
  // tail length around 8- and 16-lane boundaries. Disconnected bases send
  // MAX down its unseeded branch; there the player's heads are reset to seed
  // every component but the one holding vertex 0 (1 for player 0), so each
  // batch mixes candidates that seed every component with ones that leave
  // that component unseeded.
  Rng rng(9021);
  std::uint32_t mixed_batches = 0;
  for (const std::uint32_t n :
       {2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u}) {
    for (const bool connected : {true, false}) {
      const Digraph g = lane_test_graph(n, connected, rng);
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        for (const Vertex u : {0u, n / 2}) {
          const StrategyEvaluator naive(g, u, version);
          TableEvaluator table(g, u, version);
          std::vector<Vertex> heads = naive.current_strategy();
          check_table_probes(table, naive, heads, version, rng);
          if (connected || version != CostVersion::Max) continue;

          const Components comps = connected_components(best_response_base(g, u));
          const std::uint32_t open = comps.id[u == 0 ? 1 : 0];
          std::vector<std::uint8_t> seeded(comps.count, 0);
          seeded[comps.id[u]] = 1;
          for (const Vertex w : player_in_neighbors(g, u)) seeded[comps.id[w]] = 1;
          for (const Vertex h : heads) table.remove_head(h);
          heads.clear();
          for (Vertex v = 0; v < n; ++v) {
            if (comps.id[v] == open || seeded[comps.id[v]]) continue;
            seeded[comps.id[v]] = 1;
            table.add_head(v);
            heads.push_back(v);
          }
          const std::uint32_t seeding = check_table_probes(table, naive, heads, version, rng);
          if (seeding > 0 && seeding + heads.size() + 1 < n) ++mixed_batches;
        }
      }
    }
  }
  EXPECT_GT(mixed_batches, 10u);

  // Edgeless graphs: player 0's cost with no heads is (n − 1)·Cinf, which
  // first passes 2³² at n = 1626, and every probe leaves n − 2 vertices at
  // Cinf, a SUM cost of (n − 2)·n² + 1, past 2³² at n = 2048. Every SUM pass
  // accumulates in 64 bits, so a 32-bit accumulator would wrap from there.
  EXPECT_LT(std::uint64_t{1624} * cinf(1625), std::uint64_t{1} << 32);
  EXPECT_GE(std::uint64_t{1625} * cinf(1626), std::uint64_t{1} << 32);
  for (const std::uint32_t n : {1625u, 1626u, 2048u}) {
    const Digraph g(n);
    TableEvaluator table(g, 0, CostVersion::Sum);
    EXPECT_EQ(table.current_cost(), (n - 1) * cinf(n));
    const std::uint64_t expected = (n - 2) * cinf(n) + 1;
    if (n == 2048) {
      ASSERT_GT(expected, std::uint64_t{1} << 32);
    }
    const StrategyEvaluator naive(g, 0, CostVersion::Sum);
    StrategyEvaluator::Scratch scratch(n);
    std::vector<Vertex> probes = {1u, 8u, 1000u, n - 1, 7u, n - 2};
    rng.shuffle(probes);
    std::vector<std::uint64_t> costs(probes.size());
    std::vector<std::uint32_t> fold(n, 0);
    table.cost_with_heads(probes, costs, fold);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Vertex heads[] = {probes[i]};
      ASSERT_EQ(naive.evaluate(heads, scratch), expected);
      EXPECT_EQ(table.cost_with_head(probes[i]), expected) << "n " << n << " t " << probes[i];
      EXPECT_EQ(costs[i], expected) << "n " << n << " t " << probes[i];
    }
    EXPECT_EQ(fold, std::vector<std::uint32_t>(n, 0));
  }
}

/// Greedy, swap descent and the first-improving swap scan of player u, each
/// run through its one generic body on a fresh evaluator of type Eval.
struct Descents {
  SolverResult greedy;
  SolverResult swapped;
  SolverResult scan;
};

template <class Eval>
Descents run_descents(const Digraph& g, Vertex u, CostVersion version) {
  Descents out;
  Eval built(g, u, version);
  for (const Vertex h : g.out_neighbors(u)) built.remove_head(h);
  out.greedy = greedy_with(built, g.out_degree(u));
  out.swapped = swap_improve_with(built, out.greedy.strategy);
  Eval scanned(g, u, version);
  out.scan = scan_first_improving_swap_with(scanned);
  return out;
}

/// Move-for-move agreement: every strategy, cost and probe count.
void expect_same_descents(const Descents& got, const Descents& want) {
  EXPECT_EQ(got.greedy.strategy, want.greedy.strategy);
  EXPECT_EQ(got.greedy.cost, want.greedy.cost);
  EXPECT_EQ(got.greedy.evaluated, want.greedy.evaluated);
  EXPECT_EQ(got.swapped.strategy, want.swapped.strategy);
  EXPECT_EQ(got.swapped.cost, want.swapped.cost);
  EXPECT_EQ(got.swapped.evaluated, want.swapped.evaluated);
  EXPECT_EQ(got.scan.strategy, want.scan.strategy);
  EXPECT_EQ(got.scan.current_cost, want.scan.current_cost);
  EXPECT_EQ(got.scan.cost, want.scan.cost);
  EXPECT_EQ(got.scan.evaluated, want.scan.evaluated);
}

TEST(DeltaEvalDifferential, DescentBodiesAgreeAcrossEvaluators) {
  // greedy_with / swap_improve_with / scan_first_improving_swap_with are one
  // body per move set: on the delta (both cores) and table evaluators they
  // must reproduce the naive reference's strategies, costs and probe counts
  // exactly, and so must the production entry points built on them.
  Rng rng(9005);
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 9);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver ladder(version, /*exact_limit=*/1);
      for (Vertex u = 0; u < n; ++u) {
        if (g.out_degree(u) == 0) continue;
        SCOPED_TRACE(testing::Message() << "round " << round << " u " << u << " "
                                        << to_string(version));
        const Descents naive = run_descents<NaiveEvaluator>(g, u, version);
        EXPECT_EQ(naive.greedy.bfs_avoided, 0U);
        EXPECT_EQ(naive.swapped.bfs_avoided, 0U);
        EXPECT_EQ(naive.scan.bfs_avoided, 0U);
        expect_same_descents(run_descents<DeltaEvaluator>(g, u, version), naive);
        expect_same_descents(run_descents<CsrDeltaEvaluator>(g, u, version), naive);
        expect_same_descents(run_descents<TableEvaluator>(g, u, version), naive);

        Descents production;
        production.greedy = ladder.greedy(g, u);
        production.swapped = ladder.swap_improve(g, u, production.greedy.strategy);
        production.scan = scan_first_improving_swap(g, u, version);
        expect_same_descents(production, naive);
      }
    }
  }
}

TEST(DeltaEvalDifferential, MoveSetsScoreOnTheTableBelowTheLimit) {
  // For n ≤ kTableEvaluatorLimit every move set scores on TableEvaluator,
  // whatever the knobs say: no delta oracle runs, so bfs_avoided reads 0 and
  // no bfs.dynamic.* counter is published. n = 100 is large enough that a
  // delta oracle would fall back to full recomputes (threshold max(32, n/4)).
  ThreadPool wide(4);
  const obs::CounterFrame frame;
  Rng rng(9008);
  for (const std::uint32_t n : {9U, 12U, 100U}) {
    const std::uint64_t sigma = n + rng.next_below(n);
    const Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (const auto& [incremental, core] : {std::pair{true, GraphCore::kCsr},
                                              std::pair{true, GraphCore::kVector},
                                              std::pair{false, GraphCore::kCsr}}) {
        const BestResponseSolver solver(version, /*exact_limit=*/1, incremental, core);
        for (Vertex u = 0; u < n; u += 1 + n / 10) {
          const SolverResult greedy = solver.greedy(g, u);
          EXPECT_EQ(greedy.bfs_avoided, 0U) << "n " << n << " u " << u;
          EXPECT_EQ(solver.swap_improve(g, u, greedy.strategy).bfs_avoided, 0U);
          EXPECT_EQ(scan_first_improving_swap(g, u, version, incremental, core).bfs_avoided, 0U);
        }
        EXPECT_EQ(verify_swap_equilibrium(g, version, nullptr, incremental, core).bfs_avoided,
                  0U);
      }
      EXPECT_EQ(verify_swap_equilibrium(g, version, &wide).bfs_avoided, 0U);
      if (n > 12) continue;  // dynamics and churn stay on the small instances
      for (const MovePolicy policy :
           {MovePolicy::FirstImprovingSwap, MovePolicy::BestResponse}) {
        DynamicsConfig config;
        config.version = version;
        config.policy = policy;
        config.max_rounds = 20;
        config.exact_limit = 1;
        EXPECT_EQ(run_best_response_dynamics(g, config).bfs_avoided, 0U);
      }
    }
  }
  // Churn's trim: a budget shrink in track mode drops all but one of
  // player 0's four heads along a path of 79 vertices, so each dropped head
  // hands dozens of vertices to another.
  const std::uint32_t n = 80;
  Digraph path(n);
  std::vector<std::uint32_t> budgets(n, 1);
  for (Vertex v = 1; v + 1 < n; ++v) path.add_arc(v, v + 1);
  budgets[n - 1] = 0;  // the path's end owns no arc: an inactive slot
  for (const Vertex h : {Vertex{1}, Vertex{26}, Vertex{52}, Vertex{78}}) path.add_arc(0, h);
  budgets[0] = 4;
  ChurnConfig config;
  config.solver = "swap";
  ChurnEngine engine(path, budgets, config);
  ChurnEvent shrink;
  shrink.kind = ChurnEventKind::BudgetShrink;
  shrink.player = 0;
  shrink.budget = 1;
  engine.apply(shrink);
  EXPECT_EQ(engine.graph().out_degree(0), 1U);
  for (const obs::CounterValue& delta : frame.deltas()) {
    EXPECT_NE(delta.name.rfind("bfs.dynamic.", 0), 0U) << delta.name;
  }
}

TEST(DeltaEvalDifferential, TinyRebuildThresholdStillMatchesNaive) {
  // Threshold 1 forces the oracle's full-recompute fallback on essentially
  // every head removal — results must not change, only the work profile.
  Rng rng(9003);
  std::uint64_t total_rebuilds = 0;
  for (int round = 0; round < 15; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 6);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        if (g.out_degree(u) == 0) continue;
        const StrategyEvaluator naive(g, u, version);
        StrategyEvaluator::Scratch scratch(n);
        DeltaEvaluator delta(g, u, version, /*rebuild_threshold=*/1);
        const std::vector<Vertex> strategy = naive.current_strategy();
        std::vector<Vertex> trial;
        for (Vertex t = 0; t < n; ++t) {
          if (t == u || std::find(strategy.begin(), strategy.end(), t) != strategy.end()) {
            continue;
          }
          trial = strategy;
          trial[0] = t;
          ASSERT_EQ(swap_cost(delta, strategy[0], t), naive.evaluate(trial, scratch));
        }
        total_rebuilds += delta.oracle().full_rebuilds();
      }
    }
  }
  EXPECT_GT(total_rebuilds, 0U) << "threshold 1 never exercised the fallback";
}

TEST(DeltaEvalDifferential, SwapSolverIdenticalWithEvaluatorOnAndOff) {
  Rng rng(9004);
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 8);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver incremental(version, 2'000'000, true);
      const BestResponseSolver naive(version, 2'000'000, false);
      for (Vertex u = 0; u < n; ++u) {
        const SolverResult a = incremental.swap_improve(g, u);
        const SolverResult b = naive.swap_improve(g, u);
        ASSERT_EQ(a.cost, b.cost) << "round " << round << " u " << u;
        ASSERT_EQ(a.strategy, b.strategy);
        ASSERT_EQ(a.current_cost, b.current_cost);
        ASSERT_EQ(a.evaluated, b.evaluated);  // identical scan, move for move
        EXPECT_EQ(b.bfs_avoided, 0U);

        // evaluated − bfs_avoided must stay a valid (non-negative) count of
        // full-BFS-equivalent evaluations, including for zero-budget players.
        ASSERT_LE(a.bfs_avoided, a.evaluated);

        const SolverResult ga = incremental.greedy(g, u);
        const SolverResult gb = naive.greedy(g, u);
        ASSERT_EQ(ga.cost, gb.cost);
        ASSERT_EQ(ga.strategy, gb.strategy);
        ASSERT_EQ(ga.evaluated, gb.evaluated);
        ASSERT_LE(ga.bfs_avoided, ga.evaluated);
      }
    }
  }
}

TEST(DeltaEvalDifferential, SolveIdenticalWithEvaluatorOnAndOff) {
  Rng rng(9005);
  for (int round = 0; round < 20; ++round) {
    const std::uint32_t n = 7 + static_cast<std::uint32_t>(round % 6);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      // node_limit 1 forces the "swap" ladder's heuristic (greedy + swap)
      // rung where the evaluator choice matters; the exact rung shares one
      // code path.
      const BestResponseBackend& ladder = find_solver("swap");
      SolverBudget incremental;
      incremental.node_limit = 1;
      SolverBudget naive = incremental;
      naive.incremental = false;
      for (Vertex u = 0; u < n; ++u) {
        const SolverResult a = ladder.solve(g, u, version, incremental);
        const SolverResult b = ladder.solve(g, u, version, naive);
        ASSERT_EQ(a.cost, b.cost) << "round " << round << " u " << u;
        ASSERT_EQ(a.strategy, b.strategy);
        ASSERT_EQ(a.current_cost, b.current_cost);
        ASSERT_EQ(a.evaluated, b.evaluated);
      }
    }
  }
}

TEST(DeltaEvalDifferential, SwapEquilibriumVerdictIdenticalOnAndOff) {
  Rng rng(9006);
  ThreadPool wide(4);
  for (int round = 0; round < 30; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 8);
    const Digraph g = random_instance(n, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const auto naive = verify_swap_equilibrium(g, version, nullptr, /*incremental=*/false);
      const auto seq = verify_swap_equilibrium(g, version, nullptr);
      const auto par = verify_swap_equilibrium(g, version, &wide);
      ASSERT_EQ(seq.stable, naive.stable) << "round " << round;
      ASSERT_EQ(par.stable, naive.stable);
      ASSERT_EQ(seq.strategies_checked, naive.strategies_checked);
      if (!naive.stable) {
        ASSERT_EQ(seq.deviator, naive.deviator);
        ASSERT_EQ(par.deviator, naive.deviator);
        ASSERT_EQ(seq.improving_strategy, naive.improving_strategy);
        ASSERT_EQ(par.improving_strategy, naive.improving_strategy);
        ASSERT_EQ(seq.old_cost, naive.old_cost);
        ASSERT_EQ(seq.new_cost, naive.new_cost);
        ASSERT_EQ(par.new_cost, naive.new_cost);
      }
    }
  }
}

TEST(DeltaEvalDifferential, DynamicsRunsIdenticalWithEvaluatorOnAndOff) {
  Rng rng(9007);
  for (const MovePolicy policy : {MovePolicy::FirstImprovingSwap, MovePolicy::BestResponse}) {
    for (int round = 0; round < 8; ++round) {
      const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 5);
      const Digraph g = random_instance(n, rng);
      DynamicsConfig config;
      config.policy = policy;
      config.max_rounds = 40;
      config.exact_limit = 1;  // keep the SolverResult policy on the heuristic rung
      for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
        config.version = version;
        config.incremental = true;
        const DynamicsResult a = run_best_response_dynamics(g, config);
        config.incremental = false;
        const DynamicsResult b = run_best_response_dynamics(g, config);
        ASSERT_EQ(a.graph.hash(), b.graph.hash()) << "round " << round;
        ASSERT_TRUE(a.graph == b.graph);
        ASSERT_EQ(a.moves, b.moves);
        ASSERT_EQ(a.rounds, b.rounds);
        ASSERT_EQ(a.converged, b.converged);
        ASSERT_EQ(a.evaluations, b.evaluations);
        EXPECT_EQ(b.bfs_avoided, 0U);
      }
    }
  }
}

TEST(DeltaEvalDifferential, KnobsPickIdenticalEvaluatorsAboveTheTableLimit) {
  // Above kTableEvaluatorLimit the knobs still choose the move sets'
  // evaluator: naive, CSR delta and vector delta must return identical
  // greedy and scan results, and the delta path must serve probes without
  // full BFS recomputes. Paths of five vertices keep every probe's BFS, and
  // every delta repair, inside one small component.
  const std::uint32_t n = kTableEvaluatorLimit + 1;
  Rng rng(9009);
  Digraph g = lane_test_graph(n, /*connected=*/false, rng);
  g.add_arc(1, 1001);  // a player of budget 2 reaching a far component
  std::uint64_t total_avoided = 0;
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const BestResponseSolver naive(version, /*exact_limit=*/1, /*incremental=*/false);
    for (const Vertex u : {Vertex{1}, Vertex{1002}}) {
      SCOPED_TRACE(testing::Message() << "u " << u << " " << to_string(version));
      ASSERT_LE(g.out_degree(u), 2U);
      const SolverResult greedy = naive.greedy(g, u);
      const SolverResult scan = scan_first_improving_swap(g, u, version, false);
      EXPECT_EQ(greedy.bfs_avoided, 0U);
      EXPECT_EQ(scan.bfs_avoided, 0U);
      for (const GraphCore core : {GraphCore::kCsr, GraphCore::kVector}) {
        const BestResponseSolver solver(version, /*exact_limit=*/1, /*incremental=*/true, core);
        const SolverResult delta_greedy = solver.greedy(g, u);
        EXPECT_EQ(delta_greedy.strategy, greedy.strategy);
        EXPECT_EQ(delta_greedy.cost, greedy.cost);
        EXPECT_EQ(delta_greedy.evaluated, greedy.evaluated);
        EXPECT_LE(delta_greedy.bfs_avoided, delta_greedy.evaluated);
        const SolverResult delta_scan = scan_first_improving_swap(g, u, version, true, core);
        EXPECT_EQ(delta_scan.strategy, scan.strategy);
        EXPECT_EQ(delta_scan.current_cost, scan.current_cost);
        EXPECT_EQ(delta_scan.cost, scan.cost);
        EXPECT_EQ(delta_scan.evaluated, scan.evaluated);
        EXPECT_LE(delta_scan.bfs_avoided, delta_scan.evaluated);
        total_avoided += delta_greedy.bfs_avoided + delta_scan.bfs_avoided;
      }
    }
  }
  // The oracle must actually skip recomputation somewhere, not just agree.
  EXPECT_GT(total_avoided, 0U);
}

}  // namespace
}  // namespace bbng
