// Differential suite for the batched multi-source BFS engine
// (graph/multi_bfs.hpp). The engine's contract is bit-identity: a packed
// 64-lane sweep must return, per lane, exactly what the per-seed
// BfsRunner witness returns — aggregates AND streamed distances —
// on connected and disconnected graphs, on both graph cores, for full,
// ragged, and duplicate-source batches. On top of the 200-random-graph
// differential, the suite pins the rewired consumers (eccentricities /
// diameter / APSP / average_distance on UGraph, all_costs / social_cost on
// both cores) against the serial per-source references in
// tests/reference/naive_distances.hpp, and the verify_nash_equilibrium
// prepass against solving every player. It also pins, through results alone, that one engine reused
// across batches of every shape leaves its lane planes clean, and pins the
// 64-bit SUM aggregate width with a path graph whose distance sum exceeds
// 2³². A fuzz walk in the test_fuzz_dynamic_bfs.cpp
// style mutates both cores in lockstep and re-audits after every step.
#include "graph/multi_bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "game/cost.hpp"
#include "game/equilibrium.hpp"
#include "graph/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "graph/distances.hpp"
#include "graph/dynamic_bfs.hpp"
#include "graph/generators.hpp"
#include "graph/ugraph.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "reference/naive_distances.hpp"
#include "solver/registry.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

std::vector<Vertex> all_vertices(std::uint32_t n) {
  std::vector<Vertex> sources(n);
  for (Vertex v = 0; v < n; ++v) sources[v] = v;
  return sources;
}

/// The per-seed witness: one BfsRunner run from `source`.
template <class G>
BfsAggregates per_seed(const G& g, Vertex source, BfsRunner& runner) {
  runner.run(g, source);
  return {runner.reached(), runner.max_dist(), runner.sum_dist()};
}

void expect_aggregates_equal(const BfsAggregates& got, const BfsAggregates& want,
                             const char* what, std::size_t lane) {
  ASSERT_EQ(got.reached, want.reached) << what << " lane " << lane;
  ASSERT_EQ(got.max_dist, want.max_dist) << what << " lane " << lane;
  ASSERT_EQ(got.sum_dist, want.sum_dist) << what << " lane " << lane;
}

/// Per-seed witness + cross-core audit for one batch of sources: vector-core
/// and CSR-core engines must match BfsRunner per lane and each other on
/// every work counter.
void expect_batch_matches_per_seed(const UGraph& g, std::span<const Vertex> sources,
                                   const char* what) {
  MultiBfs engine(g);
  const std::vector<BfsAggregates> batched = engine.run(sources);

  const CsrUGraph csr(g);
  CsrMultiBfs csr_engine(csr);
  const std::vector<BfsAggregates> csr_batched = csr_engine.run(sources);

  BfsRunner witness(g.num_vertices());
  std::uint64_t total_reached = 0;
  ASSERT_EQ(batched.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const BfsAggregates want = per_seed(g, sources[i], witness);
    expect_aggregates_equal(batched[i], want, what, i);
    expect_aggregates_equal(csr_batched[i], want, what, i);
    total_reached += want.reached;
  }

  // `settled` is exactly the (lane, vertex) pairs the per-seed path scans,
  // and all four counters are order-independent sums, so the two cores must
  // agree bit-for-bit.
  const MultiBfsStats& stats = engine.stats();
  EXPECT_EQ(stats.settled, total_reached) << what;
  EXPECT_EQ(stats.sweeps, (sources.size() + MultiBfs::kLanes - 1) / MultiBfs::kLanes) << what;
  EXPECT_EQ(csr_engine.stats().sweeps, stats.sweeps) << what;
  EXPECT_EQ(csr_engine.stats().levels, stats.levels) << what;
  EXPECT_EQ(csr_engine.stats().row_scans, stats.row_scans) << what;
  EXPECT_EQ(csr_engine.stats().settled, stats.settled) << what;
}

TEST(MultiBfs, TwoHundredRandomGraphsMatchPerSeedOnBothCores) {
  // Mixed densities: p = 0.03 graphs at these sizes are mostly disconnected
  // (isolated vertices included), so unreached lanes and multi-component
  // aggregates are exercised, not just the connected happy path.
  const double densities[] = {0.03, 0.1, 0.35};
  Rng rng(0xB1F5'0001);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.next_below(80));
    const double p = densities[trial % 3];
    const UGraph g = erdos_renyi(n, p, rng);
    const std::vector<Vertex> sources = all_vertices(n);
    expect_batch_matches_per_seed(g, sources, "random");
  }
}

TEST(MultiBfs, RaggedAndDuplicateSourceBatches) {
  Rng rng(0xB1F5'0002);
  const UGraph g = erdos_renyi(90, 0.06, rng);
  // Sizes straddling the 64-lane sweep boundary, with duplicate sources —
  // each duplicated lane must carry its own full copy of the aggregates.
  for (const std::size_t size : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{130}}) {
    std::vector<Vertex> sources(size);
    for (std::size_t i = 0; i < size; ++i) {
      sources[i] = static_cast<Vertex>(rng.next_below(g.num_vertices()));
    }
    if (size >= 2) sources[size - 1] = sources[0];
    expect_batch_matches_per_seed(g, sources, "ragged");
  }
  // The empty batch is a no-op, not an error.
  MultiBfs engine(g);
  EXPECT_TRUE(engine.run({}).empty());
  EXPECT_EQ(engine.stats().sweeps, 0U);
}

TEST(MultiBfs, SettleHookStreamsExactDistances) {
  Rng rng(0xB1F5'0003);
  // Disconnected on purpose: unreached (lane, vertex) pairs must never fire
  // the hook, leaving their matrix entries at the sentinel.
  const UGraph g = erdos_renyi(70, 0.04, rng);
  const std::uint32_t n = g.num_vertices();
  const std::vector<Vertex> sources = all_vertices(n);

  std::vector<std::vector<std::uint32_t>> matrix(n);
  for (Vertex u = 0; u < n; ++u) matrix[u].assign(n, kUnreachable);
  MultiBfs engine(g);
  std::array<BfsAggregates, MultiBfs::kLanes> aggs{};
  for (std::size_t first = 0; first < sources.size(); first += MultiBfs::kLanes) {
    const std::size_t count = std::min<std::size_t>(MultiBfs::kLanes, sources.size() - first);
    engine.run_batch(std::span<const Vertex>(sources).subspan(first, count),
                     std::span<BfsAggregates>(aggs.data(), count),
                     [&](std::uint32_t lane, Vertex v, std::uint32_t level) {
                       ASSERT_EQ(matrix[first + lane][v], kUnreachable);  // fires once per pair
                       matrix[first + lane][v] = level;
                     });
  }

  BfsRunner reference(n);
  for (Vertex u = 0; u < n; ++u) {
    reference.run(g, u);
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_EQ(matrix[u][v], reference.dist(v)) << "source " << u << " vertex " << v;
    }
  }
}

TEST(MultiBfs, LanePlanesRestoredAndAllocationsFlat) {
  Rng rng(0xB1F5'0004);
  const UGraph g = erdos_renyi(60, 0.08, rng);
  const std::uint32_t n = g.num_vertices();
  const std::vector<Vertex> sources = all_vertices(n);

  MultiBfs engine(g);
  const std::vector<BfsAggregates> first = engine.run(sources);

  // Every batch leaves the engine's lane planes all-zero, so repeated
  // identical batches keep returning identical aggregates.
  for (int repeat = 0; repeat < 5; ++repeat) {
    const std::vector<BfsAggregates> again = engine.run(sources);
    for (std::size_t i = 0; i < first.size(); ++i) {
      expect_aggregates_equal(again[i], first[i], "repeat", i);
    }
  }
}

/// Runs `batch` on `engine` and checks every lane against the per-seed
/// witness on the engine's own graph.
template <class G>
void expect_reused_batch_matches(MultiBfsT<G>& engine, std::span<const Vertex> batch,
                                 const char* what) {
  std::vector<BfsAggregates> out(batch.size());
  engine.run_batch(batch, out);
  BfsRunner witness(engine.graph().num_vertices());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_aggregates_equal(out[i], per_seed(engine.graph(), batch[i], witness), what, i);
  }
}

TEST(MultiBfs, ReusedEngineMatchesPerSeedAcrossBatchShapes) {
  // One engine per core runs a full batch, a one-source batch, a batch with
  // duplicate sources and a ragged tail back to back. A lane-plane bit left
  // behind by any batch would corrupt the next batch's lanes, so per-lane
  // equality with BfsRunner pins the all-zero plane invariant.
  Rng rng(0xB1F5'000A);
  const UGraph g = erdos_renyi(100, 0.04, rng);  // disconnected at this density
  const CsrUGraph csr(g);
  const std::uint32_t n = g.num_vertices();
  const std::vector<Vertex> sources = all_vertices(n);
  const std::span<const Vertex> all(sources);
  const Vertex one[] = {n / 2};
  const Vertex duplicates[] = {7, 3, 7, 99, 3, 7, 0};

  MultiBfs engine(g);
  CsrMultiBfs csr_engine(csr);
  for (int round = 0; round < 2; ++round) {
    expect_reused_batch_matches(engine, all.first(MultiBfs::kLanes), "full");
    expect_reused_batch_matches(csr_engine, all.first(MultiBfs::kLanes), "csr full");
    expect_reused_batch_matches(engine, std::span<const Vertex>(one), "one");
    expect_reused_batch_matches(csr_engine, std::span<const Vertex>(one), "csr one");
    expect_reused_batch_matches(engine, std::span<const Vertex>(duplicates), "duplicates");
    expect_reused_batch_matches(csr_engine, std::span<const Vertex>(duplicates),
                                "csr duplicates");
    expect_reused_batch_matches(engine, all.subspan(MultiBfs::kLanes), "ragged tail");
    expect_reused_batch_matches(csr_engine, all.subspan(MultiBfs::kLanes), "csr ragged tail");
  }
  EXPECT_EQ(csr_engine.stats().row_scans, engine.stats().row_scans);
  EXPECT_EQ(csr_engine.stats().settled, engine.stats().settled);
}

TEST(MultiBfs, ParallelDriverMatchesSequentialEngine) {
  Rng rng(0xB1F5'0005);
  const UGraph g = erdos_renyi(150, 0.05, rng);
  const std::vector<Vertex> sources = all_vertices(g.num_vertices());

  MultiBfs engine(g);
  const std::vector<BfsAggregates> sequential = engine.run(sources);

  ThreadPool pool(4);
  MultiBfsStats stats;
  const std::vector<BfsAggregates> parallel =
      multi_source_aggregates(g, sources, &pool, &stats);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    expect_aggregates_equal(parallel[i], sequential[i], "parallel", i);
  }
  // The counters are order-independent sums — deterministic at any width.
  EXPECT_EQ(stats.sweeps, engine.stats().sweeps);
  EXPECT_EQ(stats.levels, engine.stats().levels);
  EXPECT_EQ(stats.row_scans, engine.stats().row_scans);
  EXPECT_EQ(stats.settled, engine.stats().settled);

  MultiBfsStats all_stats;
  const std::vector<BfsAggregates> all = all_sources_aggregates(g, &pool, &all_stats);
  ASSERT_EQ(all.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    expect_aggregates_equal(all[i], sequential[i], "all_sources", i);
  }
  EXPECT_EQ(all_stats.settled, stats.settled);

  EXPECT_TRUE(all_sources_aggregates(UGraph(0)).empty());
}

/// The graph shapes of the word-path differential on n vertices.
std::vector<std::pair<const char*, UGraph>> word_path_graphs(std::uint32_t n, Rng& rng) {
  std::vector<std::pair<const char*, UGraph>> graphs;
  graphs.emplace_back("connected", connected_erdos_renyi(n, 0.1, rng));
  UGraph split(n);  // a random half, and a path over the rest
  const std::uint32_t half = n / 2;
  for (Vertex u = 0; u < half; ++u) {
    for (Vertex v = u + 1; v < half; ++v) {
      if (rng.next_below(4) == 0) split.add_edge(u, v);
    }
  }
  for (Vertex v = half + 1; v < n; ++v) split.add_edge(v - 1, v);
  graphs.emplace_back("disconnected", std::move(split));
  graphs.emplace_back("edgeless", UGraph(n));
  graphs.emplace_back("path", path_ugraph(n));
  graphs.emplace_back("star", star_digraph(n).underlying());
  return graphs;
}

TEST(MultiBfs, AllSourcesWordPathMatchesPerSeedAndLanePathAbove64) {
  // Up to 64 vertices all_sources_aggregates runs one word BFS per source,
  // builds no engine and publishes nothing; at 65 it runs the lane sweeps.
  // Both must equal the per-seed BfsRunner, on both graph cores.
  Rng rng(0xB1F5'000B);
  ThreadPool pool(2);
  for (const std::uint32_t n : {1U, 2U, 3U, 63U, 64U, 65U}) {
    for (const auto& [shape, g] : word_path_graphs(n, rng)) {
      SCOPED_TRACE(testing::Message() << "n " << n << " " << shape);
      const CsrUGraph csr(g);
      const obs::CounterFrame frame;
      MultiBfsStats stats;
      MultiBfsStats csr_stats;
      const std::vector<BfsAggregates> words = all_sources_aggregates(g, &pool, &stats);
      const std::vector<BfsAggregates> csr_words = all_sources_aggregates(csr, &pool, &csr_stats);
      BfsRunner witness(n);
      ASSERT_EQ(words.size(), n);
      ASSERT_EQ(csr_words.size(), n);
      for (Vertex s = 0; s < n; ++s) {
        const BfsAggregates want = per_seed(g, s, witness);
        expect_aggregates_equal(words[s], want, "UGraph", s);
        expect_aggregates_equal(csr_words[s], want, "CsrUGraph", s);
      }
      const std::uint64_t sweeps = n <= 64 ? 0 : (n + 63) / 64;
      EXPECT_EQ(stats.sweeps, sweeps);
      EXPECT_EQ(csr_stats.sweeps, sweeps);
      if (n <= 64) {
        EXPECT_EQ(stats.row_scans + csr_stats.row_scans, 0U);
        for (const char* name : {"bfs.multi.sweeps", "bfs.multi.levels", "bfs.multi.row_scans",
                                 "bfs.multi.settled"}) {
          EXPECT_EQ(frame.value(name), 0U) << name;
        }
      }
    }
  }
}

TEST(MultiBfs, DistanceConsumersMatchPerSeedWitness) {
  Rng rng(0xB1F5'0006);
  std::vector<UGraph> corpus;
  corpus.push_back(path_ugraph(9));
  corpus.push_back(cycle_ugraph(12));
  corpus.push_back(grid_graph(4, 6));
  corpus.push_back(UGraph(1));
  {
    UGraph split(7);  // two components + an isolated vertex
    split.add_edge(0, 1);
    split.add_edge(1, 2);
    split.add_edge(3, 4);
    split.add_edge(4, 5);
    corpus.push_back(std::move(split));
  }
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(70));
    corpus.push_back(erdos_renyi(n, trial % 2 == 0 ? 0.05 : 0.2, rng));
  }

  for (std::size_t index = 0; index < corpus.size(); ++index) {
    const UGraph& g = corpus[index];

    const EccentricityResult per_seed = naive_eccentricities(g);
    const EccentricityResult batched = eccentricities(g);
    ASSERT_EQ(batched.connected, per_seed.connected) << "graph " << index;
    ASSERT_EQ(batched.diameter, per_seed.diameter) << "graph " << index;
    ASSERT_EQ(batched.radius, per_seed.radius) << "graph " << index;
    ASSERT_EQ(batched.ecc, per_seed.ecc) << "graph " << index;
    ASSERT_EQ(diameter(g), per_seed.diameter) << "graph " << index;
    ASSERT_EQ(apsp(g), naive_apsp(g)) << "graph " << index;

    const std::optional<double> avg = average_distance(g);
    const std::optional<double> avg_witness = naive_average_distance(g);
    ASSERT_EQ(avg.has_value(), avg_witness.has_value()) << "graph " << index;
    // Both paths divide the same exact integer totals, so the doubles are
    // bit-identical, not merely close.
    if (avg.has_value()) {
      ASSERT_EQ(*avg, *avg_witness) << "graph " << index;
    }
  }
}

TEST(MultiBfs, CostConsumersMatchPerSeedWitness) {
  Rng rng(0xB1F5'0007);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(40));
    const UGraph g = erdos_renyi(n, trial % 2 == 0 ? 0.06 : 0.25, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const std::vector<std::uint64_t> batched = all_costs(g, version);
      const std::vector<std::uint64_t> per_seed = naive_all_costs(g, version);
      ASSERT_EQ(batched, per_seed) << "trial " << trial << " " << to_string(version);
      ASSERT_EQ(naive_all_costs(CsrUGraph(g), version), per_seed) << "trial " << trial;
      // Cross-check one entry against the scalar evaluator.
      const Vertex probe = static_cast<Vertex>(rng.next_below(n));
      ASSERT_EQ(batched[probe], vertex_cost(g, probe, version)) << "trial " << trial;
    }
    const std::uint32_t d = naive_eccentricities(g).diameter;
    ASSERT_EQ(social_cost(g), d == kUnreachable ? cinf(n) : d) << "trial " << trial;
  }
}

/// The audit without its prepass: every player solved with the named
/// backend, the regret report folded exactly as verify_nash_equilibrium
/// folds it.
NashReport audit_every_player(const Digraph& g, CostVersion version, const SolverBudget& budget,
                              const std::string& solver) {
  const BestResponseBackend& backend = find_solver(solver);
  NashReport report;
  report.stable = true;
  report.certified = true;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const SolverResult result = backend.solve(g, u, version, budget);
    if (result.optimal) ++report.players_certified;
    report.certified = report.certified && result.optimal;
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

/// The regret report must be identical to solving every player; the prepass
/// counters are the audit's own. With the certified exact_bb backend the
/// certificate counts match exactly too.
void expect_audit_matches_per_seed(const Digraph& g, CostVersion version, GraphCore core) {
  SolverBudget budget;
  budget.core = core;
  const NashReport batched = verify_nash_equilibrium(g, version, budget);
  const NashReport per_seed = audit_every_player(g, version, budget, "exact_bb");

  ASSERT_EQ(batched.stable, per_seed.stable) << to_string(version);
  ASSERT_EQ(batched.certified, per_seed.certified) << to_string(version);
  ASSERT_EQ(batched.epsilon, per_seed.epsilon) << to_string(version);
  ASSERT_EQ(batched.players_certified, per_seed.players_certified) << to_string(version);
  if (!per_seed.stable) {
    ASSERT_EQ(batched.deviator, per_seed.deviator) << to_string(version);
    ASSERT_EQ(batched.improving_strategy, per_seed.improving_strategy) << to_string(version);
    ASSERT_EQ(batched.old_cost, per_seed.old_cost) << to_string(version);
    ASSERT_EQ(batched.new_cost, per_seed.new_cost) << to_string(version);
  }

  const std::uint32_t n = g.num_vertices();
  if (n <= 64) {
    // The costs come off the audit's state table: no sweep runs.
    EXPECT_EQ(batched.prepass.sweeps, 0U);
    EXPECT_EQ(batched.prepass.settled, 0U);
    EXPECT_EQ(batched.prepass.row_scans, 0U);
    return;
  }
  EXPECT_EQ(batched.prepass.sweeps, (n + 63) / 64);
  EXPECT_GE(batched.prepass.settled, n);  // every source settles itself
  EXPECT_GT(batched.prepass.row_scans, 0U);
}

TEST(MultiBfs, NashAuditBatchedMatchesPerSeedBitForBit) {
  Rng rng(0xB1F5'0008);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(rng.next_below(4));
    const Digraph g = random_profile(random_budgets(n, 2 * n, rng), rng);
    const GraphCore core = trial % 2 == 0 ? GraphCore::kCsr : GraphCore::kVector;
    expect_audit_matches_per_seed(g, CostVersion::Sum, core);
    expect_audit_matches_per_seed(g, CostVersion::Max, core);
  }
  // σ < n−1 keeps the graph disconnected — the prepass must price the
  // cinf component terms exactly like the per-seed evaluators.
  Rng rng2(0xB1F5'0009);
  const Digraph sparse = random_profile(random_budgets(8, 5, rng2), rng2);
  expect_audit_matches_per_seed(sparse, CostVersion::Sum, GraphCore::kCsr);
  expect_audit_matches_per_seed(sparse, CostVersion::Max, GraphCore::kVector);
  // Above 64 vertices the prepass runs the lane sweeps, on both cores.
  Rng rng3(0xB1F5'000A);
  const Digraph large = random_profile(random_budgets(70, 69, rng3), rng3);
  expect_audit_matches_per_seed(large, CostVersion::Sum, GraphCore::kCsr);
  expect_audit_matches_per_seed(large, CostVersion::Max, GraphCore::kVector);
}

TEST(MultiBfs, NashAuditSkipsTriviallyOptimalPlayers) {
  // Star center: cSUM = n−1 and cMAX = 1, both exactly the trivial lower
  // bound, so the batched prepass certifies it with regret 0 and no solve.
  const Digraph star = star_digraph(9);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const NashReport report = verify_nash_equilibrium(star, version);
    EXPECT_TRUE(report.stable) << to_string(version);
    EXPECT_TRUE(report.certified) << to_string(version);
    EXPECT_GE(report.players_skipped, 1U) << to_string(version);
    EXPECT_EQ(report.players_certified, star.num_vertices()) << to_string(version);
    // The skip is sound: solving every player agrees on the verdict.
    const NashReport witness = audit_every_player(star, version, {}, "exact_bb");
    EXPECT_EQ(witness.stable, report.stable);
    EXPECT_EQ(witness.epsilon, report.epsilon);
    EXPECT_EQ(witness.players_certified, report.players_certified);
  }
}

TEST(MultiBfs, SumAggregatesExceedThirtyTwoBits) {
  // Path graph, source at an end: Σ d = n(n−1)/2 ≈ 4.5·10¹⁰ > 2³². Pins the
  // distance-sum accumulator width across every engine in the library; a
  // uint32 anywhere in the chain truncates this closed-form value.
  constexpr std::uint32_t n = 300'000;
  constexpr std::uint64_t expected =
      std::uint64_t{n} * (std::uint64_t{n} - 1) / 2;  // 44'999'850'000
  static_assert(expected > std::uint64_t{1} << 32);
  const UGraph g = path_ugraph(n);

  BfsRunner runner(n);
  runner.run(g, 0);
  EXPECT_EQ(runner.sum_dist(), expected);
  EXPECT_EQ(runner.max_dist(), n - 1);

  MultiBfs engine(g);
  const Vertex sources[2] = {0, n - 1};
  std::array<BfsAggregates, 2> aggs{};
  engine.run_batch(std::span<const Vertex>(sources), std::span<BfsAggregates>(aggs));
  EXPECT_EQ(aggs[0].sum_dist, expected);
  EXPECT_EQ(aggs[1].sum_dist, expected);
  EXPECT_EQ(engine.stats().settled, 2 * std::uint64_t{n});

  EXPECT_EQ(sum_of_distances(g, 0, cinf(n)), expected);

  const DynamicBfs oracle(g, /*source=*/0);
  EXPECT_EQ(oracle.sum_dist(), expected);
}

using Edge = std::pair<Vertex, Vertex>;

Edge key(Vertex a, Vertex b) { return {std::min(a, b), std::max(a, b)}; }

TEST(FuzzMultiBfs, InsertDeleteWalkMatchesPerSeedAcrossCores) {
  // Random insert/delete walk in the test_fuzz_dynamic_bfs.cpp style: both
  // graph cores mutate in lockstep with a std::set shadow, and after every
  // step a full all-vertex batch is audited against the per-seed witness on
  // both cores, counters included (expect_batch_matches_per_seed). The
  // insert bias first grows a mostly-connected graph, then a shredding
  // phase forces frequent disconnections.
  const std::uint32_t n = 40;
  Rng rng(0xF022'B1F5);
  UGraph g(n);
  CsrUGraph csr(UGraph(n), /*row_slack=*/n - 1);  // any simple graph fits
  std::set<Edge> shadow;
  BfsRunner witness(n);

  for (int step = 0; step < 400; ++step) {
    const double insert_bias = step < 250 ? 0.7 : 0.25;
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    if (rng.next_bool(insert_bias) && !shadow.count(key(u, v))) {
      g.add_edge(u, v);
      csr.add_edge(u, v);
      shadow.insert(key(u, v));
    } else if (shadow.count(key(u, v))) {
      g.remove_edge(u, v);
      csr.remove_edge(u, v);
      shadow.erase(key(u, v));
    } else {
      continue;
    }
    ASSERT_EQ(g.num_edges(), shadow.size());
    ASSERT_EQ(csr.num_edges(), shadow.size());

    // Fresh engines each step: the differential is against the CURRENT
    // graph, and the mutated CSR rows must traverse identically to the
    // vector core.
    MultiBfs engine(g);
    CsrMultiBfs csr_engine(csr);
    const std::vector<Vertex> sources = all_vertices(n);
    const std::vector<BfsAggregates> batched = engine.run(sources);
    const std::vector<BfsAggregates> csr_batched = csr_engine.run(sources);
    for (Vertex s = 0; s < n; ++s) {
      const BfsAggregates want = per_seed(g, s, witness);
      ASSERT_EQ(batched[s].reached, want.reached) << "step " << step << " source " << s;
      ASSERT_EQ(batched[s].max_dist, want.max_dist) << "step " << step << " source " << s;
      ASSERT_EQ(batched[s].sum_dist, want.sum_dist) << "step " << step << " source " << s;
    }
    ASSERT_EQ(csr_batched.size(), batched.size());
    for (Vertex s = 0; s < n; ++s) {
      ASSERT_EQ(csr_batched[s].reached, batched[s].reached) << "step " << step;
      ASSERT_EQ(csr_batched[s].max_dist, batched[s].max_dist) << "step " << step;
      ASSERT_EQ(csr_batched[s].sum_dist, batched[s].sum_dist) << "step " << step;
    }
    ASSERT_EQ(csr_engine.stats().levels, engine.stats().levels) << "step " << step;
    ASSERT_EQ(csr_engine.stats().row_scans, engine.stats().row_scans) << "step " << step;
    ASSERT_EQ(csr_engine.stats().settled, engine.stats().settled) << "step " << step;
  }
}

}  // namespace
}  // namespace bbng
