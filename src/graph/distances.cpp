#include "graph/distances.hpp"

#include <algorithm>
#include <array>

#include "graph/multi_bfs.hpp"
#include "parallel/parallel_for.hpp"

namespace bbng {

// The all-sources sweeps below each make one pass of the packed 64-lane
// MultiBfs engine over every source: one row scan per active level instead
// of one BFS per vertex. The aggregate sweeps take all_sources_aggregates,
// which answers n ≤ 64 with one word BFS per source instead.
EccentricityResult eccentricities(const UGraph& g, ThreadPool* pool) {
  const std::uint32_t n = g.num_vertices();
  EccentricityResult result;
  result.ecc.assign(n, kUnreachable);
  if (n == 0) {
    result.connected = true;
    return result;
  }
  const std::vector<BfsAggregates> aggs = all_sources_aggregates(g, pool);
  result.connected = std::all_of(aggs.begin(), aggs.end(),
                                 [n](const BfsAggregates& agg) { return agg.reached == n; });
  if (!result.connected) {
    result.diameter = kUnreachable;
    result.radius = kUnreachable;
    return result;
  }
  for (Vertex u = 0; u < n; ++u) result.ecc[u] = aggs[u].max_dist;
  result.diameter = *std::max_element(result.ecc.begin(), result.ecc.end());
  result.radius = *std::min_element(result.ecc.begin(), result.ecc.end());
  return result;
}

std::uint32_t diameter(const UGraph& g, ThreadPool* pool) {
  return eccentricities(g, pool).diameter;
}

std::uint32_t diameter_lower_bound(const UGraph& g, std::uint32_t samples, Rng& rng) {
  const std::uint32_t n = g.num_vertices();
  if (n == 0) return 0;
  BfsRunner runner(n);
  std::uint32_t best = 0;
  Vertex source = static_cast<Vertex>(rng.next_below(n));
  for (std::uint32_t s = 0; s < samples; ++s) {
    runner.run(g, source);
    if (runner.reached() != n) return kUnreachable;
    best = std::max(best, runner.max_dist());
    // Double sweep: restart from a farthest vertex; tie-break randomly.
    std::vector<Vertex> farthest;
    for (Vertex v = 0; v < n; ++v) {
      if (runner.dist(v) == runner.max_dist()) farthest.push_back(v);
    }
    source = farthest[rng.next_below(farthest.size())];
  }
  return best;
}

std::uint32_t eccentricity(const UGraph& g, Vertex u) {
  BfsRunner runner(g.num_vertices());
  runner.run(g, u);
  return runner.reached() == g.num_vertices() ? runner.max_dist() : kUnreachable;
}

std::uint64_t sum_of_distances(const UGraph& g, Vertex u, std::uint64_t cinf) {
  BfsRunner runner(g.num_vertices());
  runner.run(g, u);
  const std::uint64_t missing = g.num_vertices() - runner.reached();
  return runner.sum_dist() + missing * cinf;
}

std::vector<std::vector<std::uint32_t>> apsp(const UGraph& g, ThreadPool* pool) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::vector<std::uint32_t>> matrix(n);
  ThreadPool& exec = pool ? *pool : ThreadPool::shared();
  if (n == 0) return matrix;
  // One 64-lane sweep fills 64 matrix rows via the settle hook; rows start
  // kUnreachable, which cross-component entries keep.
  const std::uint64_t batches = (n + MultiBfs::kLanes - 1) / MultiBfs::kLanes;
  // One engine per chunk of about batches / (4 · width) batches.
  const std::uint64_t grain = pick_grain(batches, exec.width());
  exec.run_chunked(batches, grain, [&](std::uint64_t lo, std::uint64_t hi) {
    MultiBfs engine(g);
    std::array<Vertex, MultiBfs::kLanes> sources{};
    std::array<BfsAggregates, MultiBfs::kLanes> aggs{};
    for (std::uint64_t b = lo; b < hi; ++b) {
      const auto first = static_cast<std::uint32_t>(b * MultiBfs::kLanes);
      const auto count = std::min<std::uint32_t>(MultiBfs::kLanes, n - first);
      for (std::uint32_t i = 0; i < count; ++i) {
        sources[i] = first + i;
        matrix[first + i].assign(n, kUnreachable);
      }
      engine.run_batch(std::span<const Vertex>(sources.data(), count),
                       std::span<BfsAggregates>(aggs.data(), count),
                       [&](std::uint32_t lane, Vertex v, std::uint32_t level) {
                         matrix[first + lane][v] = level;
                       });
    }
  });
  return matrix;
}

std::optional<double> average_distance(const UGraph& g, ThreadPool* pool) {
  const std::uint32_t n = g.num_vertices();
  if (n < 2) return std::nullopt;
  std::uint64_t total = 0;
  for (const BfsAggregates& agg : all_sources_aggregates(g, pool)) {
    if (agg.reached != n) return std::nullopt;
    total += agg.sum_dist;
  }
  const auto pairs = static_cast<double>(n) * (n - 1);
  return static_cast<double>(total) / pairs;
}

}  // namespace bbng
