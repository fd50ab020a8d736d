// Word-parallel BFS for graphs of at most 64 vertices.
//
// With n ≤ 64 a vertex set is one 64-bit word, and so is a vertex's
// adjacency: bit v of adj[u] is set iff uv is an edge. A BFS level is then
// one bit loop over the frontier that ORs in each frontier vertex's word;
// that OR minus the seen set is the next frontier. No queue, no distance
// array and no lane planes: the whole traversal state is three words.
//
// This is the one BFS body of every n ≤ 64 all-pairs consumer. StateTable
// and TableEvaluator (game/strategy_eval.hpp) write their distance rows from
// it, and all_sources_aggregates (graph/multi_bfs.hpp) folds per-source
// aggregates from it.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "graph/ugraph.hpp"
#include "util/assert.hpp"

namespace bbng {

/// Largest vertex count a word BFS handles: one bit per vertex.
inline constexpr std::uint32_t kWordBfsLimit = 64;

/// Per-vertex adjacency words of a graph with n ≤ kWordBfsLimit vertices.
using AdjacencyWords = std::array<std::uint64_t, kWordBfsLimit>;

/// The adjacency words of an undirected graph core (UGraph or CsrUGraph).
template <class G>
[[nodiscard]] AdjacencyWords adjacency_words(const G& g) {
  BBNG_REQUIRE(g.num_vertices() <= kWordBfsLimit);
  AdjacencyWords adj{};
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Vertex v : g.neighbors(u)) adj[u] |= std::uint64_t{1} << v;
  }
  return adj;
}

/// One BFS from s over the adjacency words `adj`. `visit(v, d)` fires once
/// per reached vertex v with d = d(s, v), level by level, s first (d = 0).
/// With kAffected, a vertex of the next frontier that only one frontier
/// vertex reaches (it is not in `twice`) has that vertex as its only
/// previous-level neighbour, and that vertex's word in `affected` gets bit s.
/// Returns the reached set.
template <bool kAffected = false, class Visit>
[[gnu::always_inline]] inline std::uint64_t word_bfs(const std::uint64_t* adj, Vertex s,
                                                     Visit&& visit,
                                                     std::uint64_t* affected = nullptr) {
  std::uint64_t seen = std::uint64_t{1} << s;
  std::uint64_t frontier = seen;
  for (std::uint32_t d = 0; frontier != 0; ++d) {
    std::uint64_t next = 0;
    std::uint64_t twice = 0;
    for (std::uint64_t f = frontier; f != 0; f &= f - 1) {
      const int v = std::countr_zero(f);
      visit(static_cast<Vertex>(v), d);
      if constexpr (kAffected) twice |= next & adj[v];
      next |= adj[v];
    }
    const std::uint64_t level = frontier;
    frontier = next & ~seen;
    seen |= frontier;
    if constexpr (kAffected) {
      for (std::uint64_t once = frontier & ~twice; once != 0; once &= once - 1) {
        affected[std::countr_zero(adj[std::countr_zero(once)] & level)] |= std::uint64_t{1} << s;
      }
    }
  }
  return seen;
}

}  // namespace bbng
