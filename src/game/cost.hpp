// Player cost functions (Section 1.2).
//
//   cSUM(u) = Σ_v dist(u, v)            with dist = Cinf = n² across components
//   cMAX(u) = locdiam(u) + (κ−1)·n²      where locdiam(u) = n² when κ > 1
//
// κ is the number of connected components of the underlying graph. With
// these definitions a player always strictly prefers strategies that reduce
// the number of components (the paper's reason for choosing Cinf = n²).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "game/game.hpp"
#include "graph/bfs.hpp"
#include "graph/digraph.hpp"
#include "graph/ugraph.hpp"
#include "parallel/thread_pool.hpp"

namespace bbng {

/// Cost of vertex u in the underlying graph `g` (κ recomputed as needed).
[[nodiscard]] std::uint64_t vertex_cost(const UGraph& g, Vertex u, CostVersion version);

/// Convenience overload on a realization.
[[nodiscard]] std::uint64_t vertex_cost(const Digraph& g, Vertex u, CostVersion version);

/// Price every vertex's BFS aggregates over `g` (aggs[u] from source u)
/// with vertex_cost's formulas; κ is computed for MAX only. The one pricing
/// loop behind all_costs and the Nash audit's current-cost prepass.
[[nodiscard]] std::vector<std::uint64_t> costs_from_aggregates(
    const UGraph& g, std::span<const BfsAggregates> aggs, CostVersion version);

/// All players' costs: every player's aggregates come from the packed
/// 64-lane MultiBfs engine (graph/multi_bfs.hpp) instead of one BFS per
/// vertex, priced with the same formulas as vertex_cost, so each entry is
/// bit-identical to it. All accumulators are 64-bit end-to-end: at n = 10⁶
/// a path-graph SUM is ~5·10¹¹, far past uint32.
[[nodiscard]] std::vector<std::uint64_t> all_costs(const UGraph& g, CostVersion version,
                                                   ThreadPool* pool = nullptr);

/// Social cost of a state = diameter of the underlying graph; the paper uses
/// n² for disconnected states (every realization with σ < n−1 has this cost).
[[nodiscard]] std::uint64_t social_cost(const UGraph& g, ThreadPool* pool = nullptr);

}  // namespace bbng
