#include "graph/bfs.hpp"

#include <algorithm>

#include "graph/csr_graph.hpp"

namespace bbng {

void BfsRunner::reset() {
  std::fill(dist_.begin(), dist_.end(), kUnreachable);
  reached_ = 0;
  max_dist_ = 0;
  sum_dist_ = 0;
}

std::vector<std::uint32_t> bfs_distances(const UGraph& g, Vertex source) {
  BfsRunner runner(g.num_vertices());
  runner.run(g, source);
  return {runner.dist().begin(), runner.dist().end()};
}

std::vector<std::uint32_t> bfs_distances_multi(const UGraph& g, std::span<const Vertex> sources) {
  BfsRunner runner(g.num_vertices());
  runner.run_multi(g, sources);
  return {runner.dist().begin(), runner.dist().end()};
}

// Anchor the hot instantiations in one TU so every consumer links against
// identical code for both cores.
template void BfsRunner::run_multi<UGraph>(const UGraph&, std::span<const Vertex>);
template void BfsRunner::run_multi<CsrUGraph>(const CsrUGraph&, std::span<const Vertex>);

}  // namespace bbng
