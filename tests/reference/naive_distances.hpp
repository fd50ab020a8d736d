// Per-seed distance references: the test-only witnesses for the
// all-sources sweeps.
//
// Every production all-sources sweep (eccentricities, diameter, APSP,
// average distance, all_costs, social_cost) runs on the packed 64-lane
// MultiBfs engine. These references run one serial BfsRunner per source
// instead and share no sweep code with it, so tests/test_multi_bfs.cpp can
// hold the engine's consumers against them bit for bit. The distance
// queries run on UGraph only; naive_all_costs also takes the CSR core for the
// cost-consumer differential on both cores.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "game/game.hpp"
#include "graph/csr_graph.hpp"
#include "graph/distances.hpp"
#include "graph/ugraph.hpp"

namespace bbng {

/// Per-vertex eccentricities, diameter and radius (kUnreachable everywhere
/// when disconnected), one BFS per source.
[[nodiscard]] EccentricityResult naive_eccentricities(const UGraph& g);

/// Full distance matrix, row u = one BFS from u (kUnreachable across
/// components).
[[nodiscard]] std::vector<std::vector<std::uint32_t>> naive_apsp(const UGraph& g);

/// Mean finite pairwise distance; nullopt if disconnected or n < 2.
[[nodiscard]] std::optional<double> naive_average_distance(const UGraph& g);

/// Every vertex's cost (game/cost.hpp formulas), with κ counted from the
/// same per-source BFS runs.
[[nodiscard]] std::vector<std::uint64_t> naive_all_costs(const UGraph& g, CostVersion version);
[[nodiscard]] std::vector<std::uint64_t> naive_all_costs(const CsrUGraph& g,
                                                         CostVersion version);

}  // namespace bbng
