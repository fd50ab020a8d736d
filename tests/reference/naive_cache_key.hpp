// Cache-key references: the test-only witnesses for
// TranspositionCache::make_key and the in-neighbour lists the evaluators
// keep.
//
// naive_player_in_neighbors asks Digraph::has_arc once per vertex, and
// naive_cache_key is the byte encoder the cache keyed on before keys were
// written in one pass: the in-neighbour list, then one (tail, head) pair per
// arc not incident to the player. They share no code with production, so
// tests/test_solver_exact.cpp can hold make_key's key equality and the
// evaluators' In(u) lists against them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "game/game.hpp"
#include "graph/digraph.hpp"

namespace bbng {

/// Players w ≠ player with an arc w → player, ascending, one has_arc query
/// per vertex.
[[nodiscard]] std::vector<Vertex> naive_player_in_neighbors(const Digraph& g, Vertex player);

/// The reference key bytes of a (g, player, version, budget-cap) query:
/// version tag, n, player and cap, the in-neighbour list, a separator, then
/// every arc (u, v) with u, v ≠ player as two little-endian 32-bit words.
[[nodiscard]] std::string naive_cache_key(const Digraph& g, Vertex player, CostVersion version,
                                          std::uint32_t budget_cap);

}  // namespace bbng
