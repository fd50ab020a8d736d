// Breadth-first search primitives.
//
// BFS is the inner loop of everything in this library (costs, eccentricity
// sweeps, best-response evaluation), so a reusable scratch object
// (BfsRunner) avoids re-allocating the queue and distance array on every
// call — the exact best-response solver performs millions of BFS runs.
//
// Every entry point is a template over the graph core (UGraph or CsrUGraph,
// graph/csr_graph.hpp): both expose sorted `neighbors(u)` spans, so the two
// cores traverse vertices in the identical order and produce bit-identical
// distances, aggregates, and trees. All-sources sweeps that only need
// aggregates batch 64 sources per pass on MultiBfs (graph/multi_bfs.hpp);
// each engine owns its scratch, so a reused engine allocates nothing once
// warm.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/ugraph.hpp"
#include "util/assert.hpp"

namespace bbng {

/// Sentinel distance for vertices in a different component.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Reusable BFS scratch space bound to a fixed vertex count.
class BfsRunner {
 public:
  explicit BfsRunner(std::uint32_t n) : dist_(n), queue_(n) {}

  /// Single-source BFS; distances stored internally (see dist()).
  template <class G>
  void run(const G& g, Vertex source) {
    const Vertex sources[1] = {source};
    run_multi(g, sources);
  }

  /// Multi-source BFS: dist(v) = min over sources of d(source, v).
  template <class G>
  void run_multi(const G& g, std::span<const Vertex> sources) {
    BBNG_REQUIRE(g.num_vertices() == dist_.size());
    reset();
    std::size_t head = 0, tail = 0;
    for (const Vertex s : sources) {
      BBNG_REQUIRE(s < dist_.size());
      if (dist_[s] != 0) {
        dist_[s] = 0;
        queue_[tail++] = s;
      }
    }
    reached_ = static_cast<std::uint32_t>(tail);
    while (head < tail) {
      const Vertex u = queue_[head++];
      const std::uint32_t du = dist_[u];
      for (const Vertex v : g.neighbors(u)) {
        if (dist_[v] != kUnreachable) continue;
        dist_[v] = du + 1;
        queue_[tail++] = v;
        ++reached_;
        max_dist_ = du + 1;
        sum_dist_ += du + 1;
      }
    }
  }

  [[nodiscard]] std::span<const std::uint32_t> dist() const noexcept {
    return {dist_.data(), dist_.size()};
  }
  [[nodiscard]] std::uint32_t dist(Vertex v) const {
    BBNG_ASSERT(v < dist_.size());
    return dist_[v];
  }

  /// Number of vertices reached by the last run (including sources).
  [[nodiscard]] std::uint32_t reached() const noexcept { return reached_; }

  /// Max finite distance found by the last run (0 if only sources reached).
  [[nodiscard]] std::uint32_t max_dist() const noexcept { return max_dist_; }

  /// Sum of finite distances found by the last run.
  [[nodiscard]] std::uint64_t sum_dist() const noexcept { return sum_dist_; }

 private:
  void reset();

  std::vector<std::uint32_t> dist_;
  std::vector<Vertex> queue_;
  std::uint32_t reached_ = 0;
  std::uint32_t max_dist_ = 0;
  std::uint64_t sum_dist_ = 0;
};

/// Per-source aggregates of one BFS: the reached(), max_dist() and
/// sum_dist() readings of a BfsRunner run, as MultiBfs returns them per lane.
struct BfsAggregates {
  std::uint32_t reached = 0;
  std::uint32_t max_dist = 0;
  std::uint64_t sum_dist = 0;
};

/// One-shot conveniences (allocate per call).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const UGraph& g, Vertex source);
[[nodiscard]] std::vector<std::uint32_t> bfs_distances_multi(const UGraph& g,
                                                             std::span<const Vertex> sources);

}  // namespace bbng
