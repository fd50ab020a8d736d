#include "reference/naive_distances.hpp"

#include <algorithm>

#include "graph/bfs.hpp"

namespace bbng {
namespace {

template <class G>
EccentricityResult eccentricities_impl(const G& g) {
  const std::uint32_t n = g.num_vertices();
  EccentricityResult result;
  result.ecc.assign(n, kUnreachable);
  result.connected = true;
  BfsRunner runner(n);
  for (Vertex u = 0; u < n; ++u) {
    runner.run(g, u);
    if (runner.reached() != n) result.connected = false;
    result.ecc[u] = runner.max_dist();
  }
  if (n == 0) return result;
  if (!result.connected) {
    std::fill(result.ecc.begin(), result.ecc.end(), kUnreachable);
    result.diameter = kUnreachable;
    result.radius = kUnreachable;
    return result;
  }
  result.diameter = *std::max_element(result.ecc.begin(), result.ecc.end());
  result.radius = *std::min_element(result.ecc.begin(), result.ecc.end());
  return result;
}

template <class G>
std::vector<std::vector<std::uint32_t>> apsp_impl(const G& g) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::vector<std::uint32_t>> matrix(n);
  BfsRunner runner(n);
  for (Vertex u = 0; u < n; ++u) {
    runner.run(g, u);
    matrix[u].assign(runner.dist().begin(), runner.dist().end());
  }
  return matrix;
}

template <class G>
std::optional<double> average_distance_impl(const G& g) {
  const std::uint32_t n = g.num_vertices();
  if (n < 2) return std::nullopt;
  BfsRunner runner(n);
  std::uint64_t total = 0;
  for (Vertex u = 0; u < n; ++u) {
    runner.run(g, u);
    if (runner.reached() != n) return std::nullopt;
    total += runner.sum_dist();
  }
  return static_cast<double>(total) / (static_cast<double>(n) * (n - 1));
}

template <class G>
std::vector<std::uint64_t> all_costs_impl(const G& g, CostVersion version) {
  const std::uint32_t n = g.num_vertices();
  const std::uint64_t inf = cinf(n);
  std::vector<std::uint64_t> sums(n);
  std::vector<std::uint64_t> reached(n);
  std::vector<std::uint32_t> max_dist(n);
  // κ: one component per source not reached from any smaller source.
  std::vector<std::uint8_t> seen(n, 0);
  std::uint64_t kappa = 0;
  BfsRunner runner(n);
  for (Vertex u = 0; u < n; ++u) {
    runner.run(g, u);
    sums[u] = runner.sum_dist();
    reached[u] = runner.reached();
    max_dist[u] = runner.max_dist();
    if (seen[u]) continue;
    ++kappa;
    for (Vertex v = 0; v < n; ++v) {
      if (runner.dist(v) != kUnreachable) seen[v] = 1;
    }
  }
  std::vector<std::uint64_t> costs(n);
  for (Vertex u = 0; u < n; ++u) {
    if (version == CostVersion::Sum) {
      costs[u] = sums[u] + (n - reached[u]) * inf;
    } else {
      costs[u] = kappa == 1 ? max_dist[u] : kappa * inf;
    }
  }
  return costs;
}

}  // namespace

EccentricityResult naive_eccentricities(const UGraph& g) { return eccentricities_impl(g); }

std::vector<std::vector<std::uint32_t>> naive_apsp(const UGraph& g) { return apsp_impl(g); }

std::optional<double> naive_average_distance(const UGraph& g) { return average_distance_impl(g); }

std::vector<std::uint64_t> naive_all_costs(const UGraph& g, CostVersion version) {
  return all_costs_impl(g, version);
}
std::vector<std::uint64_t> naive_all_costs(const CsrUGraph& g, CostVersion version) {
  return all_costs_impl(g, version);
}

}  // namespace bbng
