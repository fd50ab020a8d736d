// Randomised operation-sequence stress tests for the dynamic BFS oracle
// (graph/dynamic_bfs.hpp), in the style of test_fuzz_graphs.cpp: drive
// DynamicBfs with long random insert/delete sequences — including
// disconnecting deletes and reconnecting inserts — and check distances,
// aggregates, and the shortest-path tree against a from-scratch BfsRunner
// recompute after every step, for repair-only, fallback-only, and default
// threshold configurations. A second family runs the vector-core and
// CSR-core instantiations of the oracle side by side on identical op
// sequences (inserts, deletes, trial probes, fallback-threshold crossings)
// and demands bit-for-bit agreement on every observable, including the
// instrumentation counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "graph/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "graph/dynamic_bfs.hpp"
#include "graph/generators.hpp"
#include "graph/ugraph.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

using Edge = std::pair<Vertex, Vertex>;

Edge key(Vertex a, Vertex b) { return {std::min(a, b), std::max(a, b)}; }

/// Full oracle-vs-recompute audit: distances, aggregates, tree invariants.
void expect_matches_recompute(const DynamicBfs& oracle, BfsRunner& reference, int step) {
  reference.run(oracle.graph(), oracle.source());
  const std::uint32_t n = oracle.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(oracle.dist(v), reference.dist(v)) << "step " << step << " vertex " << v;
  }
  ASSERT_EQ(oracle.reached(), reference.reached()) << "step " << step;
  ASSERT_EQ(oracle.sum_dist(), reference.sum_dist()) << "step " << step;
  ASSERT_EQ(oracle.max_dist(), reference.max_dist()) << "step " << step;
  // The parent array stays a valid shortest-path tree.
  for (Vertex v = 0; v < n; ++v) {
    if (v == oracle.source() || oracle.dist(v) == kUnreachable) {
      ASSERT_EQ(oracle.parent(v), kUnreachable) << "step " << step << " vertex " << v;
    } else {
      const Vertex p = oracle.parent(v);
      ASSERT_LT(p, n) << "step " << step << " vertex " << v;
      ASSERT_TRUE(oracle.graph().has_edge(p, v)) << "step " << step << " vertex " << v;
      ASSERT_EQ(oracle.dist(p) + 1, oracle.dist(v)) << "step " << step << " vertex " << v;
    }
  }
}

/// Random insert/delete walk. `insert_bias` > 0.5 grows the graph (dense,
/// mostly-connected); < 0.5 shreds it (frequent disconnecting deletes).
void fuzz_walk(std::uint64_t seed, std::uint32_t n, std::uint32_t rebuild_threshold, int steps,
               double insert_bias) {
  Rng rng(seed);
  DynamicBfs oracle(UGraph(n), /*source=*/0, rebuild_threshold);
  BfsRunner reference(n);
  std::set<Edge> shadow;

  for (int step = 0; step < steps; ++step) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    if (rng.next_bool(insert_bias) && !shadow.count(key(u, v))) {
      oracle.insert_edge(u, v);
      shadow.insert(key(u, v));
    } else if (shadow.count(key(u, v))) {
      oracle.delete_edge(u, v);
      shadow.erase(key(u, v));
    } else {
      continue;
    }
    ASSERT_EQ(oracle.graph().num_edges(), shadow.size());
    expect_matches_recompute(oracle, reference, step);

    // Periodically probe an absent edge through the trial journal: inside
    // the trial, distances and aggregates must equal a recompute on the
    // probe graph (parents are documented as unspecified there); after
    // rollback the full state — including the tree — must be restored, and
    // the very next loop iteration may delete a tree edge on top of it.
    if (step % 5 == 0) {
      const auto a = static_cast<Vertex>(rng.next_below(n));
      const auto b = static_cast<Vertex>(rng.next_below(n));
      if (a != b && !shadow.count(key(a, b))) {
        oracle.begin_trial();
        oracle.insert_edge(a, b);
        reference.run(oracle.graph(), oracle.source());
        for (Vertex v = 0; v < n; ++v) {
          ASSERT_EQ(oracle.dist(v), reference.dist(v)) << "trial step " << step;
        }
        ASSERT_EQ(oracle.reached(), reference.reached()) << "trial step " << step;
        ASSERT_EQ(oracle.sum_dist(), reference.sum_dist()) << "trial step " << step;
        ASSERT_EQ(oracle.max_dist(), reference.max_dist()) << "trial step " << step;
        oracle.rollback_trial();
        expect_matches_recompute(oracle, reference, step);
      }
    }
  }
}

TEST(FuzzDynamicBfs, RepairPathAgreesWithRecompute) {
  // Threshold n disables the fallback: every delete exercises the
  // subtree-invalidate + bucket-repair path.
  fuzz_walk(/*seed=*/31337, /*n=*/24, /*rebuild_threshold=*/24, /*steps=*/3000, 0.55);
}

TEST(FuzzDynamicBfs, FallbackPathAgreesWithRecompute) {
  // Threshold 1 rebuilds on essentially every tree-edge delete.
  fuzz_walk(/*seed=*/31338, /*n=*/20, /*rebuild_threshold=*/1, /*steps=*/2000, 0.55);
}

TEST(FuzzDynamicBfs, DefaultThresholdAgreesWithRecompute) {
  fuzz_walk(/*seed=*/31339, /*n=*/48, /*rebuild_threshold=*/0, /*steps=*/2500, 0.55);
}

TEST(FuzzDynamicBfs, ShreddingWalkCoversDisconnectionAndReconnection) {
  // Deletion-heavy walk on a sparse graph: components split and re-merge
  // constantly, covering unreachable labels and reconnecting inserts.
  fuzz_walk(/*seed=*/31340, /*n=*/18, /*rebuild_threshold=*/18, /*steps=*/2500, 0.45);
}

TEST(FuzzDynamicBfs, SmallThresholdMixesRepairAndFallback) {
  // Threshold 3: small subtrees repair incrementally, larger ones fall back
  // — the boundary between the two paths is crossed constantly.
  fuzz_walk(/*seed=*/31341, /*n=*/22, /*rebuild_threshold=*/3, /*steps=*/2500, 0.5);
}

TEST(FuzzDynamicBfs, SeededFromRandomGraphThenPerturbed) {
  // Start from a connected Erdős–Rényi graph instead of the empty graph, so
  // early deletes hit deep, bushy BFS trees.
  Rng rng(31342);
  for (int round = 0; round < 6; ++round) {
    const std::uint32_t n = 16 + 8 * static_cast<std::uint32_t>(round % 3);
    const UGraph g = connected_erdos_renyi(n, 0.12, rng);
    std::set<Edge> shadow;
    for (Vertex a = 0; a < n; ++a) {
      for (const Vertex b : g.neighbors(a)) {
        if (a < b) shadow.insert(key(a, b));
      }
    }
    DynamicBfs oracle(g, /*source=*/static_cast<Vertex>(rng.next_below(n)),
                      /*rebuild_threshold=*/n);
    BfsRunner reference(n);
    for (int step = 0; step < 400; ++step) {
      const auto u = static_cast<Vertex>(rng.next_below(n));
      const auto v = static_cast<Vertex>(rng.next_below(n));
      if (u == v) continue;
      if (shadow.count(key(u, v))) {
        oracle.delete_edge(u, v);
        shadow.erase(key(u, v));
      } else if (rng.next_bool(0.4)) {
        oracle.insert_edge(u, v);
        shadow.insert(key(u, v));
      } else {
        continue;
      }
      expect_matches_recompute(oracle, reference, step);
    }
  }
}

/// Bit-for-bit comparison of every observable of the two core
/// instantiations, including the shortest-path tree and the counters.
void expect_cores_identical(const DynamicBfs& vec, const CsrDynamicBfs& csr, int step) {
  const std::uint32_t n = vec.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(vec.dist(v), csr.dist(v)) << "step " << step << " vertex " << v;
    ASSERT_EQ(vec.parent(v), csr.parent(v)) << "step " << step << " vertex " << v;
  }
  ASSERT_EQ(vec.reached(), csr.reached()) << "step " << step;
  ASSERT_EQ(vec.sum_dist(), csr.sum_dist()) << "step " << step;
  ASSERT_EQ(vec.max_dist(), csr.max_dist()) << "step " << step;
  ASSERT_EQ(vec.ops(), csr.ops()) << "step " << step;
  ASSERT_EQ(vec.full_rebuilds(), csr.full_rebuilds()) << "step " << step;
  ASSERT_EQ(vec.touched(), csr.touched()) << "step " << step;
}

/// Drive a DynamicBfs and a CsrDynamicBfs through the same random op
/// sequence — inserts, disconnecting deletes, and trial probes — and demand
/// bit-for-bit agreement after every operation. Because both cores keep
/// sorted adjacency, the BFS visit order, repair order, fallback decisions,
/// and the touched() work counter must all coincide exactly.
void csr_differential_walk(std::uint64_t seed, std::uint32_t n, std::uint32_t rebuild_threshold,
                           int steps, double insert_bias) {
  Rng rng(seed);
  DynamicBfs vec(UGraph(n), /*source=*/0, rebuild_threshold);
  CsrDynamicBfs csr(CsrUGraph(UGraph(n), /*row_slack=*/n - 1), /*source=*/0, rebuild_threshold);
  BfsRunner reference(n);
  std::set<Edge> shadow;

  for (int step = 0; step < steps; ++step) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    if (rng.next_bool(insert_bias) && !shadow.count(key(u, v))) {
      vec.insert_edge(u, v);
      csr.insert_edge(u, v);
      shadow.insert(key(u, v));
    } else if (shadow.count(key(u, v))) {
      vec.delete_edge(u, v);
      csr.delete_edge(u, v);
      shadow.erase(key(u, v));
    } else {
      continue;
    }
    ASSERT_EQ(csr.graph().num_edges(), shadow.size());
    expect_cores_identical(vec, csr, step);
    // Anchor both cores to ground truth as well, so a shared bug in the
    // templated oracle cannot hide behind the differential agreement.
    if (step % 25 == 0) expect_matches_recompute(vec, reference, step);

    // Trial probes through both journals: agreement must hold inside the
    // trial and after rollback.
    if (step % 7 == 0) {
      const auto a = static_cast<Vertex>(rng.next_below(n));
      const auto b = static_cast<Vertex>(rng.next_below(n));
      if (a != b && !shadow.count(key(a, b))) {
        vec.begin_trial();
        csr.begin_trial();
        vec.insert_edge(a, b);
        csr.insert_edge(a, b);
        expect_cores_identical(vec, csr, step);
        vec.rollback_trial();
        csr.rollback_trial();
        expect_cores_identical(vec, csr, step);
      }
    }
  }
}

TEST(FuzzCsrDynamicBfs, RepairPathCoresAgreeBitForBit) {
  csr_differential_walk(/*seed=*/7201, /*n=*/26, /*rebuild_threshold=*/26, /*steps=*/3000, 0.55);
}

TEST(FuzzCsrDynamicBfs, FallbackPathCoresAgreeBitForBit) {
  csr_differential_walk(/*seed=*/7202, /*n=*/20, /*rebuild_threshold=*/1, /*steps=*/2000, 0.55);
}

TEST(FuzzCsrDynamicBfs, ThresholdBoundaryCoresAgreeBitForBit) {
  // Threshold 3 keeps both oracles crossing the repair/fallback boundary;
  // the fallback decision depends on the subtree size, so agreement here
  // proves the cores collect identical subtrees.
  csr_differential_walk(/*seed=*/7203, /*n=*/24, /*rebuild_threshold=*/3, /*steps=*/2500, 0.5);
}

TEST(FuzzCsrDynamicBfs, ShreddingWalkCoresAgreeBitForBit) {
  csr_differential_walk(/*seed=*/7204, /*n=*/18, /*rebuild_threshold=*/18, /*steps=*/2500, 0.45);
}

TEST(FuzzCsrDynamicBfs, SeededFromRandomGraphCoresAgreeBitForBit) {
  // Start both cores from the same dense seeded graph so early deletes hit
  // deep trees; also exercises the CsrUGraph(const UGraph&) rebuild path as
  // an oracle substrate rather than the empty-graph patch path.
  Rng rng(7205);
  for (int round = 0; round < 5; ++round) {
    const std::uint32_t n = 16 + 8 * static_cast<std::uint32_t>(round % 3);
    const UGraph g = connected_erdos_renyi(n, 0.12, rng);
    std::set<Edge> shadow;
    for (Vertex a = 0; a < n; ++a) {
      for (const Vertex b : g.neighbors(a)) {
        if (a < b) shadow.insert(key(a, b));
      }
    }
    const auto source = static_cast<Vertex>(rng.next_below(n));
    DynamicBfs vec(g, source, /*rebuild_threshold=*/n);
    CsrDynamicBfs csr(CsrUGraph(g, /*row_slack=*/n - 1), source, /*rebuild_threshold=*/n);
    for (int step = 0; step < 400; ++step) {
      const auto u = static_cast<Vertex>(rng.next_below(n));
      const auto v = static_cast<Vertex>(rng.next_below(n));
      if (u == v) continue;
      if (shadow.count(key(u, v))) {
        vec.delete_edge(u, v);
        csr.delete_edge(u, v);
        shadow.erase(key(u, v));
      } else if (rng.next_bool(0.4)) {
        vec.insert_edge(u, v);
        csr.insert_edge(u, v);
        shadow.insert(key(u, v));
      } else {
        continue;
      }
      expect_cores_identical(vec, csr, step);
    }
  }
}

TEST(FuzzDynamicBfs, InstrumentationCountsAreCoherent) {
  Rng rng(31343);
  const std::uint32_t n = 20;
  DynamicBfs always_fallback(UGraph(n), 0, /*rebuild_threshold=*/1);
  DynamicBfs never_fallback(UGraph(n), 0, /*rebuild_threshold=*/n);
  std::set<Edge> shadow;
  for (int step = 0; step < 1500; ++step) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    if (rng.next_bool(0.55) && !shadow.count(key(u, v))) {
      always_fallback.insert_edge(u, v);
      never_fallback.insert_edge(u, v);
      shadow.insert(key(u, v));
    } else if (shadow.count(key(u, v))) {
      always_fallback.delete_edge(u, v);
      never_fallback.delete_edge(u, v);
      shadow.erase(key(u, v));
    }
  }
  EXPECT_EQ(always_fallback.ops(), never_fallback.ops());
  EXPECT_GT(always_fallback.ops(), 0U);
  EXPECT_GT(always_fallback.full_rebuilds(), 0U);
  EXPECT_EQ(never_fallback.full_rebuilds(), 0U);
  EXPECT_GT(never_fallback.touched(), 0U);
}

}  // namespace
}  // namespace bbng
