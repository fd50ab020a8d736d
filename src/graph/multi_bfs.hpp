// Batched multi-source BFS — many sources settled per pass over the rows.
//
// Every batch consumer in this library (the all-player current-cost scan of
// verify_nash_equilibrium above 64 vertices, SUM/MAX cost evaluation,
// eccentricity/diameter sweeps, APSP) used to pay one full BFS per seed: n
// sweeps, each scanning every reached row once. MultiBfs packs up to 64 sources ("lanes") into one
// sweep by carrying, per vertex, a 64-bit mask of the lanes whose frontier
// contains it (the engine's seen/frontier/next lane planes), and
// advancing all packed frontiers level-synchronously: a vertex's adjacency
// row is scanned once per level it is active in for ANY lane, instead of
// once per source that reaches it. On small-diameter instances (the paper
// regimes) a vertex is active at only a handful of distinct levels across
// 64 lanes, so row scans drop by roughly 64 / (distinct levels per vertex)
// — the frontier-batching idea of the SPAA 2021 stepping framework
// (SNIPPETS.md snippet 2) applied to unweighted BFS, with the multi-source
// lane packing of the MS-BFS literature.
//
// Per-lane aggregates (reached / max_dist / sum_dist) are folded in as
// vertices settle, so a batch returns exactly what 64 independent
// BfsRunner runs would — bit-identical, since the aggregates are pure
// functions of the (exact) distances — without materialising n×n distances.
// An optional on_settle(lane, vertex, level) hook lets APSP-style consumers
// stream the distances out. The frontier loop itself is sweep(), the one
// lane kernel: run_batch() folds the aggregates and publishes `bfs.multi.*`
// around it, while TableEvaluator (game/strategy_eval.hpp) fills the exact
// solvers' base-distance table from it above 64 vertices (one-word BFS rows
// below) and publishes nothing. Work counters (sweeps, levels, row_scans,
// settled) make the saving auditable: `settled` is precisely the number of
// row scans the per-seed path would have performed, so settled / row_scans
// is the measured batching gain (BENCH_multi_bfs.json).
//
// all_sources_aggregates skips the engine for n ≤ 64: one word-parallel BFS
// per source (graph/word_bfs.hpp) answers there without lane planes, and
// publishes no `bfs.multi.*` counters.
//
// Templated over the graph core like DynamicBfsT: both UGraph and CsrUGraph
// expose sorted neighbors(u) spans, so the two instantiations do identical
// work and produce identical counters.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "graph/ugraph.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/assert.hpp"

namespace bbng {

/// Work counters of one or more batched sweeps. All four are deterministic
/// (traversal-order-independent sums), so differential tests can pin them
/// across graph cores and thread counts.
struct MultiBfsStats {
  std::uint64_t sweeps = 0;     ///< batches run (⌈sources/64⌉ per run call)
  std::uint64_t levels = 0;     ///< level-synchronous rounds across sweeps
  std::uint64_t row_scans = 0;  ///< (vertex, level) row scans performed
  std::uint64_t settled = 0;    ///< (lane, vertex) pairs settled — the row
                                ///< scans the per-seed path would have done

  MultiBfsStats& operator+=(const MultiBfsStats& other) noexcept {
    sweeps += other.sweeps;
    levels += other.levels;
    row_scans += other.row_scans;
    settled += other.settled;
    return *this;
  }
};

/// Registry mirror of MultiBfsStats (`bfs.multi.*`). run_batch publishes
/// each batch's growth, so the struct and the registry agree bit for bit
/// (tests/test_obs.cpp).
inline const obs::CounterTable<MultiBfsStats>& multi_bfs_counters() {
  static const obs::CounterTable<MultiBfsStats> table{
      {"bfs.multi.sweeps", &MultiBfsStats::sweeps},
      {"bfs.multi.levels", &MultiBfsStats::levels},
      {"bfs.multi.row_scans", &MultiBfsStats::row_scans},
      {"bfs.multi.settled", &MultiBfsStats::settled},
  };
  return table;
}

/// The batched engine bound to one graph. It owns its lane planes and
/// vertex lists, sized from the graph at construction, and every batch
/// leaves the planes all-zero, so one instance can run any number of
/// batches, its first included, without clearing or allocating; stats()
/// accumulates across them.
template <class GraphT>
class MultiBfsT {
 public:
  /// Lanes per sweep — one bit of the per-vertex plane word each.
  static constexpr std::uint32_t kLanes = 64;

  /// `g` must outlive the engine.
  explicit MultiBfsT(const GraphT& g)
      : g_(&g),
        seen_(g.num_vertices(), 0),
        cur_(g.num_vertices(), 0),
        nxt_(g.num_vertices(), 0) {
    touched_.reserve(g.num_vertices());
    frontier_.reserve(g.num_vertices());
    promoted_.reserve(g.num_vertices());
  }

  /// One packed sweep: per-lane aggregates for up to kLanes sources.
  /// `out[i]` receives exactly the reached() / max_dist() / sum_dist() of a
  /// BfsRunner run from sources[i].
  /// `on_settle(lane, vertex, level)` fires once per settled (lane, vertex)
  /// pair, sources included (level 0), in level order within the batch.
  /// The batch's work is published to the registry as `bfs.multi.*`.
  template <class OnSettle>
  void run_batch(std::span<const Vertex> sources, std::span<BfsAggregates> out,
                 OnSettle&& on_settle) {
    BBNG_REQUIRE(out.size() == sources.size());
    const MultiBfsStats stats_before = stats_;
    std::fill(out.begin(), out.end(), BfsAggregates{0, 0, 0});
    sweep(sources, [&](std::uint32_t lane, Vertex v, std::uint32_t level) {
      // Levels arrive in order, so the last one a lane settles is its max.
      BfsAggregates& agg = out[lane];
      ++agg.reached;
      agg.max_dist = level;
      agg.sum_dist += level;
      on_settle(lane, v, level);
    });
    multi_bfs_counters().publish(stats_, stats_before);
  }

  /// The lane-sweep kernel under run_batch: advances up to kLanes packed
  /// frontiers level-synchronously and fires `on_settle(lane, vertex, level)`
  /// once per settled (lane, vertex) pair, sources included (level 0), in
  /// level order. Accumulates stats() but publishes nothing, so a consumer
  /// that only streams distances out (TableEvaluator's base-distance table,
  /// filled here only above 64 vertices) stays off the `bfs.multi.*`
  /// counters.
  template <class OnSettle>
  void sweep(std::span<const Vertex> sources, OnSettle&& on_settle) {
    const std::uint32_t n = g_->num_vertices();
    BBNG_REQUIRE(sources.size() <= kLanes);
    for (const Vertex s : sources) BBNG_REQUIRE(s < n);

    ++stats_.sweeps;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const Vertex s = sources[i];
      const std::uint64_t bit = std::uint64_t{1} << i;
      if (seen_[s] == 0) touched_.push_back(s);
      if (cur_[s] == 0) frontier_.push_back(s);
      cur_[s] |= bit;
      seen_[s] |= bit;
      on_settle(static_cast<std::uint32_t>(i), s, 0U);
    }
    stats_.settled += sources.size();

    std::uint32_t level = 0;
    while (!frontier_.empty()) {
      ++level;
      ++stats_.levels;
      for (const Vertex v : frontier_) {
        const std::uint64_t fmask = cur_[v];
        cur_[v] = 0;
        ++stats_.row_scans;
        for (const Vertex w : g_->neighbors(v)) {
          const std::uint64_t fresh = fmask & ~seen_[w];
          if (fresh == 0) continue;
          if (seen_[w] == 0) touched_.push_back(w);
          seen_[w] |= fresh;
          if (nxt_[w] == 0) promoted_.push_back(w);
          nxt_[w] |= fresh;
        }
      }
      // Promote next-level masks into the frontier and report every
      // (lane, vertex) pair settled at this level.
      for (const Vertex w : promoted_) {
        std::uint64_t mask = nxt_[w];
        nxt_[w] = 0;
        cur_[w] = mask;
        stats_.settled += static_cast<std::uint32_t>(std::popcount(mask));
        while (mask != 0) {
          const auto lane = static_cast<std::uint32_t>(std::countr_zero(mask));
          mask &= mask - 1;
          on_settle(lane, w, level);
        }
      }
      frontier_.swap(promoted_);
      promoted_.clear();
    }

    // Restore the all-zero plane invariant: `cur_`/`nxt_` were zeroed as
    // they were consumed (the final level's frontier was scanned and cleared,
    // and its last promotion round found nothing); `seen_` is nonzero exactly
    // on the vertices listed in `touched_`.
    for (const Vertex v : touched_) seen_[v] = 0;
    touched_.clear();
  }

  /// Aggregate-only batch.
  void run_batch(std::span<const Vertex> sources, std::span<BfsAggregates> out) {
    run_batch(sources, out, [](std::uint32_t, Vertex, std::uint32_t) {});
  }

  /// Sequential batching driver: any number of sources, ⌈size/64⌉ sweeps.
  [[nodiscard]] std::vector<BfsAggregates> run(std::span<const Vertex> sources) {
    std::vector<BfsAggregates> out(sources.size());
    for (std::size_t first = 0; first < sources.size(); first += kLanes) {
      const std::size_t count = std::min<std::size_t>(kLanes, sources.size() - first);
      run_batch(sources.subspan(first, count),
                std::span<BfsAggregates>(out).subspan(first, count));
    }
    return out;
  }

  [[nodiscard]] const GraphT& graph() const noexcept { return *g_; }
  [[nodiscard]] const MultiBfsStats& stats() const noexcept { return stats_; }

 private:
  const GraphT* g_;
  // Lane planes: word v holds a bit per packed source ("lane") whose sweep
  // has seen / is expanding / will expand v. All-zero between batches.
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> cur_;
  std::vector<std::uint64_t> nxt_;
  // Vertex lists, each holding a vertex at most once, so each is bounded by
  // n and reserved at construction: a sweep never allocates.
  std::vector<Vertex> touched_;   ///< vertices whose `seen_` word went nonzero
  std::vector<Vertex> frontier_;  ///< this level's vertices, each once whatever its lanes
  std::vector<Vertex> promoted_;  ///< vertices whose `nxt_` word went nonzero this level
  MultiBfsStats stats_;
};

using MultiBfs = MultiBfsT<UGraph>;
using CsrMultiBfs = MultiBfsT<CsrUGraph>;

/// Aggregates for every source, computed in ⌈|sources|/64⌉ packed sweeps
/// distributed over the pool (one engine per worker chunk). Entry i is
/// bit-identical to a BfsRunner run from sources[i]; when `stats` is given
/// the batch counters are summed into it (deterministic at any thread
/// count — the counters are order-independent sums).
template <class G>
[[nodiscard]] std::vector<BfsAggregates> multi_source_aggregates(
    const G& g, std::span<const Vertex> sources, ThreadPool* pool = nullptr,
    MultiBfsStats* stats = nullptr);

/// All-vertices convenience: sources = 0..n-1 (the all-player scan shape).
/// For n ≤ 64 it runs no MultiBfsT engine: one word BFS per source
/// (graph/word_bfs.hpp), serially, with the same bit-identical aggregates.
/// That path allocates no lane planes, adds nothing to `stats` and publishes
/// no `bfs.multi.*` counters.
template <class G>
[[nodiscard]] std::vector<BfsAggregates> all_sources_aggregates(
    const G& g, ThreadPool* pool = nullptr, MultiBfsStats* stats = nullptr);

}  // namespace bbng
