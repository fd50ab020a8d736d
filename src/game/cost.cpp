#include "game/cost.hpp"

#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/distances.hpp"
#include "graph/multi_bfs.hpp"

namespace bbng {

std::uint64_t vertex_cost(const UGraph& g, Vertex u, CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE(u < n);
  BfsRunner runner(n);
  runner.run(g, u);
  const std::uint64_t inf = cinf(n);
  if (version == CostVersion::Sum) {
    const std::uint64_t missing = n - runner.reached();
    return runner.sum_dist() + missing * inf;
  }
  // MAX version: local diameter + (κ-1)·n²; local diameter is n² whenever
  // the graph is disconnected (some pair sits at distance Cinf).
  if (runner.reached() == n) return runner.max_dist();
  const std::uint32_t kappa = connected_components(g).count;
  return inf + (kappa - 1) * inf;
}

std::uint64_t vertex_cost(const Digraph& g, Vertex u, CostVersion version) {
  return vertex_cost(g.underlying(), u, version);
}

std::vector<std::uint64_t> costs_from_aggregates(const UGraph& g,
                                                 std::span<const BfsAggregates> aggs,
                                                 CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE(aggs.size() == n);
  std::vector<std::uint64_t> costs(n);
  const std::uint64_t inf = cinf(n);
  const std::uint32_t kappa = version == CostVersion::Max ? connected_components(g).count : 1;
  for (Vertex u = 0; u < n; ++u) {
    if (version == CostVersion::Sum) {
      costs[u] = aggs[u].sum_dist + static_cast<std::uint64_t>(n - aggs[u].reached) * inf;
    } else {
      costs[u] = (kappa == 1) ? aggs[u].max_dist : inf + (kappa - 1) * inf;
    }
  }
  return costs;
}

std::vector<std::uint64_t> all_costs(const UGraph& g, CostVersion version, ThreadPool* pool) {
  if (g.num_vertices() == 0) return {};
  return costs_from_aggregates(g, all_sources_aggregates(g, pool), version);
}

std::uint64_t social_cost(const UGraph& g, ThreadPool* pool) {
  const std::uint32_t d = diameter(g, pool);
  return d == kUnreachable ? cinf(g.num_vertices()) : d;
}

}  // namespace bbng
