#include "graph/multi_bfs.hpp"

#include <bit>
#include <mutex>

#include "graph/word_bfs.hpp"
#include "obs/timing.hpp"
#include "parallel/parallel_for.hpp"

namespace bbng {

template <class G>
std::vector<BfsAggregates> multi_source_aggregates(const G& g,
                                                   std::span<const Vertex> sources,
                                                   ThreadPool* pool, MultiBfsStats* stats) {
  std::vector<BfsAggregates> out(sources.size());
  const std::uint64_t batches =
      (sources.size() + MultiBfsT<G>::kLanes - 1) / MultiBfsT<G>::kLanes;
  if (batches == 0) return out;
  ThreadPool& exec = pool != nullptr ? *pool : ThreadPool::shared();
  std::mutex stats_mutex;
  MultiBfsStats total;
  // About four chunks per worker, so one engine serves many batches: each
  // engine allocates its planes and vertex lists once, at construction.
  const std::uint64_t grain = pick_grain(batches, exec.width());
  exec.run_chunked(batches, grain, [&](std::uint64_t lo, std::uint64_t hi) {
    MultiBfsT<G> engine(g);
    // Histogram only, no trace span: a campaign runs this batch sweep
    // millions of times, and per-batch span events would swamp the trace.
    static const obs::HistogramId kSweepHist = obs::register_histogram("bfs.multi.sweep");
    for (std::uint64_t b = lo; b < hi; ++b) {
      const std::size_t first = static_cast<std::size_t>(b) * MultiBfsT<G>::kLanes;
      const std::size_t count =
          std::min<std::size_t>(MultiBfsT<G>::kLanes, sources.size() - first);
      const obs::ScopedTimer sweep_timer(kSweepHist);
      engine.run_batch(sources.subspan(first, count),
                       std::span<BfsAggregates>(out).subspan(first, count));
    }
    const std::lock_guard<std::mutex> lock(stats_mutex);
    total += engine.stats();
  });
  if (stats != nullptr) *stats += total;
  return out;
}

template <class G>
std::vector<BfsAggregates> all_sources_aggregates(const G& g, ThreadPool* pool,
                                                  MultiBfsStats* stats) {
  if (g.num_vertices() <= kWordBfsLimit) {
    // One word BFS per source, serially: at this size a lane sweep's planes
    // and a pool dispatch cost more than the traversals.
    const AdjacencyWords adj = adjacency_words(g);
    std::vector<BfsAggregates> out(g.num_vertices());
    for (Vertex s = 0; s < g.num_vertices(); ++s) {
      BfsAggregates& agg = out[s];
      const std::uint64_t reached = word_bfs(adj.data(), s, [&agg](Vertex, std::uint32_t d) {
        agg.max_dist = d;  // levels arrive in order
        agg.sum_dist += d;
      });
      agg.reached = static_cast<std::uint32_t>(std::popcount(reached));
    }
    return out;
  }
  std::vector<Vertex> sources(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  return multi_source_aggregates(g, std::span<const Vertex>(sources), pool, stats);
}

template std::vector<BfsAggregates> multi_source_aggregates<UGraph>(
    const UGraph&, std::span<const Vertex>, ThreadPool*, MultiBfsStats*);
template std::vector<BfsAggregates> multi_source_aggregates<CsrUGraph>(
    const CsrUGraph&, std::span<const Vertex>, ThreadPool*, MultiBfsStats*);
template std::vector<BfsAggregates> all_sources_aggregates<UGraph>(const UGraph&, ThreadPool*,
                                                                   MultiBfsStats*);
template std::vector<BfsAggregates> all_sources_aggregates<CsrUGraph>(const CsrUGraph&,
                                                                      ThreadPool*,
                                                                      MultiBfsStats*);

}  // namespace bbng
