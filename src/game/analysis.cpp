#include "game/analysis.hpp"

#include <algorithm>

#include "game/best_response.hpp"
#include "game/cost.hpp"
#include "game/equilibrium.hpp"
#include "graph/connectivity.hpp"
#include "util/combinatorics.hpp"

namespace bbng {

std::string to_string(StabilityCertificate certificate) {
  switch (certificate) {
    case StabilityCertificate::ExactNash: return "exact-NE";
    case StabilityCertificate::SwapStable: return "swap-stable";
    case StabilityCertificate::NotEquilibrium: return "not-equilibrium";
    case StabilityCertificate::Unknown: return "unknown";
  }
  return "?";
}

StateAudit audit_state(const Digraph& g, const AuditOptions& options, ThreadPool* pool) {
  StateAudit audit;
  const std::uint32_t n = g.num_vertices();
  audit.num_players = n;
  audit.total_budget = g.num_arcs();
  audit.brace_count = g.brace_count();

  const UGraph u = g.underlying();
  audit.connected = is_connected(u);
  audit.social_cost = social_cost(u, pool);
  if (options.compute_connectivity) {
    audit.vertex_connectivity = vertex_connectivity(u, pool);
  }

  const auto costs = all_costs(u, options.version, pool);
  audit.min_cost = *std::min_element(costs.begin(), costs.end());
  audit.max_cost = *std::max_element(costs.begin(), costs.end());
  // n costs of up to (n − 1)·n² each can pass 2⁶⁴ in total (from about
  // n = 65,536 on an edgeless state), so sum in 128 bits.
  unsigned __int128 total = 0;
  for (const auto c : costs) total += c;
  audit.mean_cost = static_cast<double>(total) / static_cast<double>(n);

  // Strongest feasible certificate.
  bool exact_ok = true;
  for (Vertex v = 0; v < n && exact_ok; ++v) {
    exact_ok = binomial(n - 1, g.out_degree(v)) <= options.exact_limit;
  }
  if (exact_ok) {
    audit.certificate = verify_equilibrium(g, options.version, options.exact_limit, pool).stable
                            ? StabilityCertificate::ExactNash
                            : StabilityCertificate::NotEquilibrium;
    return audit;
  }
  std::uint64_t swap_work = 0;
  for (Vertex v = 0; v < n; ++v) {
    swap_work += static_cast<std::uint64_t>(g.out_degree(v)) * n;
  }
  if (swap_work <= options.swap_limit) {
    audit.certificate = verify_swap_equilibrium(g, options.version, pool).stable
                            ? StabilityCertificate::SwapStable
                            : StabilityCertificate::NotEquilibrium;
    return audit;
  }
  audit.certificate = StabilityCertificate::Unknown;
  return audit;
}

}  // namespace bbng
