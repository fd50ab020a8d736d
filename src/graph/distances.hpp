// Distance aggregates: eccentricities, diameter, radius, distance sums.
//
// Every all-sources sweep (eccentricities, diameter, APSP, average
// distance) runs on the packed 64-lane MultiBfs engine
// (graph/multi_bfs.hpp), parallel over batches of 64 sources on the shared
// ThreadPool, one engine per worker chunk. The aggregate sweeps
// (eccentricities, diameter, average distance) take all_sources_aggregates'
// n ≤ 64 path instead: one word BFS per source (graph/word_bfs.hpp), no
// engine and no `bfs.multi.*` counters. Single-source queries
// (eccentricity, sum_of_distances) run one BfsRunner sweep. The all-sources
// entry points are overloaded for both graph cores (UGraph and CsrUGraph)
// and return identical values. For very large graphs (the k=4 shift graph has
// 65 536 vertices) a sampled variant gives a certified *lower* bound on the
// diameter plus the exact eccentricity of the sampled vertices.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/ugraph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace bbng {

struct EccentricityResult {
  std::vector<std::uint32_t> ecc;  ///< per-vertex eccentricity (kUnreachable if disconnected)
  std::uint32_t diameter = 0;      ///< max finite ecc; kUnreachable if disconnected
  std::uint32_t radius = 0;        ///< min ecc; kUnreachable if disconnected
  bool connected = false;
};

/// Exact eccentricities, parallel over sources through the 64-lane
/// MultiBfs engine (graph/multi_bfs.hpp) — one row scan per active level
/// instead of one BFS per vertex — or, for n ≤ 64, one word BFS per source.
/// tests/reference/naive_distances.hpp keeps a serial one-BFS-per-source
/// witness the results are checked against.
[[nodiscard]] EccentricityResult eccentricities(const UGraph& g, ThreadPool* pool = nullptr);

/// Exact diameter (kUnreachable if disconnected).
[[nodiscard]] std::uint32_t diameter(const UGraph& g, ThreadPool* pool = nullptr);

/// Diameter lower bound from `samples` BFS sweeps (double-sweep heuristic:
/// each sample BFS restarts from the farthest vertex found). Exact on trees.
[[nodiscard]] std::uint32_t diameter_lower_bound(const UGraph& g, std::uint32_t samples,
                                                 Rng& rng);

/// Eccentricity of a single vertex (kUnreachable if g disconnected from u).
[[nodiscard]] std::uint32_t eccentricity(const UGraph& g, Vertex u);

/// Sum over v of d(u,v), counting `cinf` for each unreachable vertex.
[[nodiscard]] std::uint64_t sum_of_distances(const UGraph& g, Vertex u, std::uint64_t cinf);

/// Full APSP matrix (row u = BFS from u); intended for small n only.
/// Rows stream out of packed MultiBfs sweeps via its settle hook
/// (kUnreachable across components).
[[nodiscard]] std::vector<std::vector<std::uint32_t>> apsp(const UGraph& g,
                                                           ThreadPool* pool = nullptr);

/// Mean finite pairwise distance; nullopt if disconnected or n < 2.
[[nodiscard]] std::optional<double> average_distance(const UGraph& g,
                                                     ThreadPool* pool = nullptr);

}  // namespace bbng
