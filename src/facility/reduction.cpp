#include "facility/reduction.hpp"

#include <algorithm>

#include "facility/kmedian.hpp"
#include "game/strategy_eval.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bbng {

ReductionInstance make_reduction_instance(const UGraph& h, std::uint32_t k) {
  const std::uint32_t n = h.num_vertices();
  BBNG_REQUIRE(k >= 1 && k <= n);

  // Arbitrary orientation of H (any orientation works — only the underlying
  // graph matters for the new player's distances).
  ReductionInstance instance;
  instance.new_player = n;
  instance.k = k;
  instance.h_size = n;

  Digraph g(n + 1);
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : h.neighbors(u)) {
      if (v > u) g.add_arc(u, v);
    }
  }
  for (Vertex c = 0; c < k; ++c) g.add_arc(n, c);  // placeholder strategy
  instance.realization = std::move(g);
  return instance;
}

std::uint64_t facility_value_from_cost(const ReductionInstance& instance, CostVersion version,
                                       std::uint64_t cost) {
  if (version == CostVersion::Max) {
    BBNG_REQUIRE_MSG(cost >= 1, "a MAX cost below 1 cannot come from the reduction");
    return cost - 1;
  }
  BBNG_REQUIRE_MSG(cost >= instance.h_size, "SUM cost below |V(H)|");
  return cost - instance.h_size;
}

FacilitySolution solve_facility_via_best_response(const UGraph& h, std::uint32_t k,
                                                  CostVersion version,
                                                  std::uint64_t exact_limit) {
  const ReductionInstance instance = make_reduction_instance(h, k);
  const BestResponseSolver solver(version, exact_limit);
  const SolverResult br = solver.exact(instance.realization, instance.new_player);

  FacilitySolution solution;
  solution.centers = br.strategy;
  std::sort(solution.centers.begin(), solution.centers.end());
  solution.objective = facility_value_from_cost(instance, version, br.cost);
  solution.evaluated = br.evaluated;
  return solution;
}

std::vector<Vertex> facility_seed_strategy(const Digraph& g, Vertex player, CostVersion version,
                                           std::uint64_t seed) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE(player < n);
  const std::uint32_t k = g.out_degree(player);
  BBNG_REQUIRE_MSG(k >= 1, "facility seeding needs a positive budget");

  // Compact base graph: underlying(G) minus the player's edges, with the
  // player's (isolated) slot removed so the facility solvers never try to
  // cover it. compact id = id - (id > player).
  const UGraph base = best_response_base(g, player);
  UGraph h(n - 1);
  for (Vertex u = 0; u < n; ++u) {
    if (u == player) continue;
    const Vertex cu = u > player ? u - 1 : u;
    for (const Vertex v : base.neighbors(u)) {
      const Vertex cv = v > player ? v - 1 : v;
      if (cv > cu) h.add_edge(cu, cv);
    }
  }

  Rng rng(seed);
  const FacilitySolution solution = version == CostVersion::Max
                                        ? greedy_kcenter(h, k, rng)
                                        : local_search_kmedian(h, k, rng);
  std::vector<Vertex> heads;
  heads.reserve(solution.centers.size());
  for (const Vertex c : solution.centers) heads.push_back(c >= player ? c + 1 : c);
  std::sort(heads.begin(), heads.end());
  return heads;
}

}  // namespace bbng
