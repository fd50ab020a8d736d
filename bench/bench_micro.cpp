// Substrate microbenchmarks (google-benchmark): the primitives whose
// throughput bounds every experiment — BFS, eccentricity sweeps, Dinic,
// strategy evaluation, the exact solvers' base-distance table build, exact
// best response, and the Theorem 2.3 builder.
#include <benchmark/benchmark.h>

#include "constructions/equilibria.hpp"
#include "game/best_response.hpp"
#include "game/strategy_eval.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/distances.hpp"
#include "graph/generators.hpp"
#include "graph/maxflow.hpp"
#include "graph/metrics.hpp"

namespace bbng {
namespace {

void BM_BfsSingleSource(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const UGraph g = connected_erdos_renyi(n, 4.0 / n, rng);
  BfsRunner runner(n);
  Vertex source = 0;
  for (auto _ : state) {
    runner.run(g, source);
    source = (source + 1) % n;
    benchmark::DoNotOptimize(runner.max_dist());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BfsSingleSource)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DiameterSweep(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const UGraph g = connected_erdos_renyi(n, 4.0 / n, rng);
  ThreadPool pool(1);
  for (auto _ : state) benchmark::DoNotOptimize(diameter(g, &pool));
}
BENCHMARK(BM_DiameterSweep)->Arg(128)->Arg(512);

void BM_DinicVertexConnectivity(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const UGraph g = connected_erdos_renyi(n, 6.0 / n, rng);
  ThreadPool pool(1);
  for (auto _ : state) benchmark::DoNotOptimize(vertex_connectivity(g, &pool));
}
BENCHMARK(BM_DinicVertexConnectivity)->Arg(32)->Arg(64);

void BM_StrategyEvaluate(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto budgets = random_budgets(n, 2ULL * n, rng);
  const Digraph g = random_profile(budgets, rng);
  const StrategyEvaluator eval(g, 0, CostVersion::Sum);
  StrategyEvaluator::Scratch scratch(n);
  std::vector<Vertex> strategy;
  for (Vertex v = 1; v <= g.out_degree(0) && v < n; ++v) strategy.push_back(v);
  if (strategy.empty()) strategy.push_back(1);
  for (auto _ : state) benchmark::DoNotOptimize(eval.evaluate(strategy, scratch));
}
BENCHMARK(BM_StrategyEvaluate)->Arg(64)->Arg(256)->Arg(1024);

// One TableEvaluator per player of a random σ = 2n profile (eight profiles,
// cycled); items are constructions. n = 64 is the last one-word table fill,
// n = 65 the first 64-lane sweep.
void BM_TableEvaluatorBuild(benchmark::State& state) {
  Rng rng(10);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<Digraph> profiles;
  for (int i = 0; i < 8; ++i) {
    profiles.push_back(random_profile(random_budgets(n, 2ULL * n, rng), rng));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Digraph& g = profiles[next];
    next = (next + 1) % profiles.size();
    for (Vertex u = 0; u < n; ++u) {
      const TableEvaluator eval(g, u, CostVersion::Sum);
      benchmark::DoNotOptimize(eval.current_cost());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_TableEvaluatorBuild)->Arg(12)->Arg(40)->Arg(64)->Arg(65)->Arg(256);

void BM_ExactBestResponse(benchmark::State& state) {
  Rng rng(5);
  const std::uint32_t n = 20;
  auto budgets = random_budgets(n, 2 * n, rng);
  budgets[0] = static_cast<std::uint32_t>(state.range(0));
  const Digraph g = random_profile(budgets, rng);
  const BestResponseSolver solver(CostVersion::Sum, 10'000'000);
  ThreadPool pool(1);
  for (auto _ : state) benchmark::DoNotOptimize(solver.exact(g, 0, &pool).cost);
}
BENCHMARK(BM_ExactBestResponse)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_GreedyBestResponse(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto budgets = random_budgets(n, 2ULL * n, rng);
  budgets[0] = 4;
  const Digraph g = random_profile(budgets, rng);
  const BestResponseSolver solver(CostVersion::Sum);
  for (auto _ : state) benchmark::DoNotOptimize(solver.greedy(g, 0).cost);
}
BENCHMARK(BM_GreedyBestResponse)->Arg(32)->Arg(128);

void BM_Girth(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const UGraph g = connected_erdos_renyi(n, 6.0 / n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(girth(g));
}
BENCHMARK(BM_Girth)->Arg(128)->Arg(512);

void BM_WienerIndex(benchmark::State& state) {
  Rng rng(9);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const UGraph g = connected_erdos_renyi(n, 4.0 / n, rng);
  ThreadPool pool(1);
  for (auto _ : state) benchmark::DoNotOptimize(wiener_index(g, &pool));
}
BENCHMARK(BM_WienerIndex)->Arg(256)->Arg(1024);

void BM_ConstructEquilibrium(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto budgets = random_budgets(n, 2ULL * n, rng);
  const BudgetGame game(budgets);
  for (auto _ : state) benchmark::DoNotOptimize(construct_equilibrium(game).num_arcs());
}
BENCHMARK(BM_ConstructEquilibrium)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace bbng

BENCHMARK_MAIN();
