// Dynamic single-source BFS: exact distances under edge insert/delete.
//
// DynamicBfsT owns a mutable copy of an undirected graph and keeps the exact
// BFS distance (and a shortest-path tree) from a fixed source current across
// single-edge insertions and deletions, in the spirit of the dynamic-SSSP
// literature (Even–Shiloach trees; see Forster–Nanongkai 2018 and
// Kyng–Meierhans–Probst Gutenberg 2021 in PAPERS.md):
//
//   * insert(u,v) — if the new edge shortens anything, a relaxation wave
//     propagates the decreased labels outward; work is proportional to the
//     region whose distance actually drops.
//   * delete(u,v) — non-tree edges are free. Deleting the tree edge above v
//     invalidates exactly v's subtree; the subtree is collected, its vertices
//     are re-settled in increasing candidate-distance order with a bucket
//     queue seeded from the intact frontier (distances only grow on
//     deletion), and anything left unsettled becomes unreachable.
//
// When a deletion touches more than `rebuild_threshold` vertices the repair
// is abandoned for one full BFS recompute, bounding the worst case at the
// static cost while keeping the common case proportional to the touched
// region. Aggregates (reached count, sum of distances, max distance via
// per-level counts) are maintained incrementally so callers can read
// SUM/MAX-style objectives in O(1) without rescanning the distance array —
// that is what makes DeltaEvaluator (game/strategy_eval.hpp) cheap.
//
// The class is a template over the graph core: DynamicBfs (= UGraph) is the
// vector-adjacency reference, CsrDynamicBfs (= CsrUGraph) the flat-arena
// production core. Both keep sorted rows, so the oracles traverse neighbours
// in the identical order and stay bit-identical in every observable —
// distances, parents, aggregates, journals, and instrumentation counters
// (tests/test_fuzz_dynamic_bfs.cpp runs them side by side). CsrUGraph rows
// have fixed capacity, so a CSR oracle's inserts need spare slots in both
// rows: build its graph with enough row slack (underlying_csr sizes the
// delta evaluator's rows for its seed edges). Each oracle owns its
// per-operation scratch (relaxation wave, subtree list, epoch marks, bucket
// queue); every operation leaves it clean, so steady-state probes allocate
// nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/csr_graph.hpp"
#include "graph/ugraph.hpp"
#include "obs/metrics.hpp"

namespace bbng {

namespace detail {
/// Registry mirror of full_rebuilds_: deletions whose repair region crossed
/// the threshold and fell back to a from-scratch BFS. A pure function of the
/// operation sequence, like the per-instance counter it shadows.
inline void note_dynamic_bfs_recompute() {
  if (!obs::enabled()) return;
  static const obs::CounterId id = obs::register_counter("bfs.dynamic.recomputes");
  obs::add(id, 1);
}
}  // namespace detail

template <class GraphT>
class DynamicBfsT {
 public:
  /// Takes ownership of `g`. `rebuild_threshold` = touched-vertex count above
  /// which a deletion repair falls back to one full BFS; 0 picks a default of
  /// max(32, n/4). Pass n (or more) to never fall back, 1 to always fall back
  /// (both useful in differential tests). `track_max` maintains per-level
  /// counts so max_dist() is available; pass false to shave two array writes
  /// off every label change when only reached()/sum_dist() are consumed.
  explicit DynamicBfsT(GraphT g, Vertex source, std::uint32_t rebuild_threshold = 0,
                       bool track_max = true)
      : n_(g.num_vertices()),
        source_(source),
        rebuild_threshold_(rebuild_threshold),
        track_max_(track_max),
        g_(std::move(g)),
        dist_(n_, kUnreachable),
        parent_(n_, kUnreachable),
        level_count_(track_max_ ? static_cast<std::size_t>(n_) + 1 : 0, 0),
        mark_(n_, 0),
        buckets_(static_cast<std::size_t>(n_) + 2) {
    BBNG_REQUIRE(source_ < n_);
    if (rebuild_threshold_ == 0) rebuild_threshold_ = std::max<std::uint32_t>(32, n_ / 4);
    rebuild();
  }

  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] Vertex source() const noexcept { return source_; }
  [[nodiscard]] const GraphT& graph() const noexcept { return g_; }
  [[nodiscard]] std::uint32_t rebuild_threshold() const noexcept { return rebuild_threshold_; }

  /// Insert the (absent) edge {u,v} and repair distances. On the CSR core
  /// both rows need a spare slot.
  void insert_edge(Vertex u, Vertex v) {
    BBNG_REQUIRE(u < n_ && v < n_ && u != v);
    g_.add_edge(u, v);
    if (trial_active_) trial_edges_.emplace_back(u, v);
    ++ops_;

    // Orient so u is the (weakly) closer endpoint; bail if nothing improves.
    if (dist_[v] != kUnreachable && (dist_[u] == kUnreachable || dist_[v] < dist_[u])) {
      std::swap(u, v);
    }
    if (dist_[u] == kUnreachable) return;                       // both unreachable
    if (dist_[v] != kUnreachable && dist_[v] <= dist_[u] + 1) return;

    // Relaxation wave: labels only decrease, so each vertex enters at most
    // once per strict improvement and the work is O(region that improves).
    // Probes skip parent maintenance entirely (rollback discards the wave).
    wave_.clear();
    journal_label(v);
    apply_label(v, dist_[u] + 1);
    if (!trial_active_) parent_[v] = u;
    wave_.push_back(v);
    ++touched_;
    std::size_t head = 0;
    while (head < wave_.size()) {
      const Vertex w = wave_[head++];
      const std::uint32_t dw = dist_[w];
      for (const Vertex x : g_.neighbors(w)) {
        if (dist_[x] != kUnreachable && dist_[x] <= dw + 1) continue;
        journal_label(x);
        apply_label(x, dw + 1);
        if (!trial_active_) parent_[x] = w;
        wave_.push_back(x);
        ++touched_;
      }
    }
    wave_.clear();
  }

  /// Delete the (present) edge {u,v} and repair distances.
  void delete_edge(Vertex u, Vertex v) {
    BBNG_REQUIRE(u < n_ && v < n_);
    BBNG_REQUIRE_MSG(!trial_active_, "trials are insert-only probes");
    g_.remove_edge(u, v);
    ++ops_;

    // Only removing the tree edge above a vertex can invalidate labels.
    if (parent_[u] == v) std::swap(u, v);
    if (parent_[v] != u) return;

    // Collect v's subtree (children = neighbours whose parent pointer is w);
    // everything else keeps an intact shortest-path tree, so its labels stay
    // exact (deletion can only increase distances).
    const std::uint32_t epoch = bump_epoch();
    affected_.clear();
    affected_.push_back(v);
    mark_[v] = epoch;
    for (std::size_t i = 0; i < affected_.size(); ++i) {
      const Vertex w = affected_[i];
      for (const Vertex x : g_.neighbors(w)) {
        if (parent_[x] == w && mark_[x] != epoch) {
          mark_[x] = epoch;
          affected_.push_back(x);
        }
      }
      if (affected_.size() > rebuild_threshold_) {
        for (const Vertex a : affected_) mark_[a] = 0;
        touched_ += affected_.size();
        affected_.clear();
        ++full_rebuilds_;
        detail::note_dynamic_bfs_recompute();
        rebuild();
        return;
      }
    }
    touched_ += affected_.size();

    // Repair: settle affected vertices in increasing candidate distance with
    // a bucket queue (unit-weight Dijkstra seeded from the intact frontier).
    std::uint32_t min_level = kUnreachable;
    used_levels_.clear();
    const auto push = [&](Vertex w, std::uint32_t cand) {
      if (cand > n_) return;  // no simple path is that long
      if (buckets_[cand].empty()) used_levels_.push_back(cand);
      buckets_[cand].push_back(w);
      if (cand < min_level) min_level = cand;
    };
    for (const Vertex w : affected_) {
      std::uint32_t cand = kUnreachable;
      for (const Vertex x : g_.neighbors(w)) {
        if (mark_[x] == epoch || dist_[x] == kUnreachable) continue;
        cand = std::min(cand, dist_[x] + 1);
      }
      if (cand != kUnreachable) push(w, cand);
    }

    std::size_t unsettled = affected_.size();
    for (std::uint32_t lev = min_level; lev <= n_ && unsettled > 0; ++lev) {
      auto& bucket = buckets_[lev];
      for (std::size_t i = 0; i < bucket.size(); ++i) {  // may grow while draining
        const Vertex w = bucket[i];
        if (mark_[w] != epoch) continue;  // already settled
        mark_[w] = 0;
        --unsettled;
        BBNG_ASSERT(lev >= dist_[w]);
        apply_label(w, lev);
        parent_[w] = kUnreachable;
        for (const Vertex x : g_.neighbors(w)) {
          if (mark_[x] == epoch) {
            push(x, lev + 1);  // settled-affected frontier keeps relaxing
          } else if (parent_[w] == kUnreachable && dist_[x] + 1 == lev) {
            parent_[w] = x;  // dist_[x] finite: kUnreachable + 1 overflows to 0
          }
        }
        BBNG_ASSERT(parent_[w] != kUnreachable);
      }
    }
    for (const std::uint32_t lev : used_levels_) buckets_[lev].clear();

    // Anything never settled has lost its last path to the source.
    if (unsettled > 0) {
      for (const Vertex w : affected_) {
        if (mark_[w] != epoch) continue;
        mark_[w] = 0;
        apply_label(w, kUnreachable);
        parent_[w] = kUnreachable;
      }
    }
    affected_.clear();
  }

  /// Begin a journaled trial: subsequent insert_edge calls record undo
  /// information (old labels, inserted edges) so rollback_trial() can revert
  /// them in O(touched region) — the cheap way to *probe* a candidate edge
  /// without paying a deletion repair to undo it. Trials are insert-only
  /// (deletes would need parent maintenance, which probes skip) and do not
  /// nest; parent() is unspecified while a trial is open.
  void begin_trial() {
    BBNG_REQUIRE_MSG(!trial_active_, "trials do not nest");
    trial_labels_.clear();
    trial_edges_.clear();
    trial_sum_ = sum_dist_;
    trial_reached_ = reached_;
    trial_max_level_ = max_level_;
    trial_active_ = true;
  }

  /// Revert every operation since begin_trial (labels, parents, edges, and
  /// all aggregates) and leave trial mode.
  void rollback_trial() {
    BBNG_REQUIRE(trial_active_);
    trial_active_ = false;
    // Reverse replay: with duplicate journal entries the oldest value is
    // restored last. Scalar aggregates come straight from the snapshot; level
    // counts (MAX tracking only) are adjusted per entry.
    for (auto it = trial_labels_.rbegin(); it != trial_labels_.rend(); ++it) {
      if (track_max_) {
        const std::uint32_t cur = dist_[it->v];
        if (cur != kUnreachable) --level_count_[cur];
        if (it->dist != kUnreachable) ++level_count_[it->dist];
      }
      dist_[it->v] = it->dist;
    }
    sum_dist_ = trial_sum_;
    reached_ = trial_reached_;
    max_level_ = trial_max_level_;
    for (auto it = trial_edges_.rbegin(); it != trial_edges_.rend(); ++it) {
      g_.remove_edge(it->first, it->second);
    }
    trial_labels_.clear();
    trial_edges_.clear();
  }

  [[nodiscard]] bool in_trial() const noexcept { return trial_active_; }

  /// Exact distance from the source (kUnreachable across components).
  [[nodiscard]] std::uint32_t dist(Vertex v) const {
    BBNG_ASSERT(v < n_);
    return dist_[v];
  }
  [[nodiscard]] std::span<const std::uint32_t> dist() const noexcept {
    return {dist_.data(), dist_.size()};
  }

  /// BFS-tree parent of v (kUnreachable for the source and unreached).
  [[nodiscard]] Vertex parent(Vertex v) const {
    BBNG_ASSERT(v < n_);
    return parent_[v];
  }

  /// Vertices with finite distance, including the source.
  [[nodiscard]] std::uint32_t reached() const noexcept { return reached_; }

  /// Sum of finite distances (the source contributes 0).
  [[nodiscard]] std::uint64_t sum_dist() const noexcept { return sum_dist_; }

  /// Max finite distance (0 when only the source is reached). Requires
  /// construction with track_max = true.
  [[nodiscard]] std::uint32_t max_dist() const {
    BBNG_REQUIRE_MSG(track_max_, "constructed with track_max = false");
    while (max_level_ > 0 && level_count_[max_level_] == 0) --max_level_;
    return max_level_;
  }

  // ---- instrumentation (per-instance, monotone) ----
  /// Edge operations applied so far.
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  /// Deletions that fell back to a full BFS recompute.
  [[nodiscard]] std::uint64_t full_rebuilds() const noexcept { return full_rebuilds_; }
  /// Vertices whose label was inspected or changed by incremental repairs.
  [[nodiscard]] std::uint64_t touched() const noexcept { return touched_; }

 private:
  void rebuild() {
    BBNG_ASSERT(!trial_active_);  // trials are insert-only; inserts never rebuild
    std::fill(dist_.begin(), dist_.end(), kUnreachable);
    std::fill(parent_.begin(), parent_.end(), kUnreachable);
    std::fill(level_count_.begin(), level_count_.end(), 0U);
    sum_dist_ = 0;
    max_level_ = 0;

    // Plain BFS, but recording parents (BfsRunner does not keep them).
    wave_.clear();
    dist_[source_] = 0;
    if (track_max_) level_count_[0] = 1;
    wave_.push_back(source_);
    std::size_t head = 0;
    while (head < wave_.size()) {
      const Vertex u = wave_[head++];
      const std::uint32_t du = dist_[u];
      for (const Vertex v : g_.neighbors(u)) {
        if (dist_[v] != kUnreachable) continue;
        dist_[v] = du + 1;
        parent_[v] = u;
        if (track_max_) ++level_count_[du + 1];
        sum_dist_ += du + 1;
        if (du + 1 > max_level_) max_level_ = du + 1;
        wave_.push_back(v);
      }
    }
    reached_ = static_cast<std::uint32_t>(wave_.size());
    wave_.clear();
  }

  void apply_label(Vertex v, std::uint32_t new_dist) {
    const std::uint32_t old = dist_[v];
    if (old == new_dist) return;
    if (old != kUnreachable) {
      if (track_max_) --level_count_[old];
      sum_dist_ -= old;
      --reached_;
    }
    if (new_dist != kUnreachable) {
      sum_dist_ += new_dist;
      ++reached_;
      if (track_max_) {
        ++level_count_[new_dist];
        if (new_dist > max_level_) max_level_ = new_dist;
      }
    }
    dist_[v] = new_dist;
  }

  /// Journal v's label before a change (no-op outside a trial).
  void journal_label(Vertex v) {
    if (trial_active_) trial_labels_.push_back({v, dist_[v]});
  }

  /// Advance the mark epoch; all existing marks become stale. On wrap-around
  /// the mark array is cleared once.
  std::uint32_t bump_epoch() {
    if (++epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0U);
      epoch_ = 1;
    }
    return epoch_;
  }

  std::uint32_t n_;
  Vertex source_;
  std::uint32_t rebuild_threshold_;
  bool track_max_;
  GraphT g_;
  std::vector<std::uint32_t> dist_;
  std::vector<Vertex> parent_;

  // Aggregates.
  std::uint32_t reached_ = 0;
  std::uint64_t sum_dist_ = 0;
  std::vector<std::uint32_t> level_count_;   ///< #vertices per finite distance
  mutable std::uint32_t max_level_ = 0;      ///< cached upper bound on max_dist

  // Per-operation scratch; every operation leaves it clean (lists cleared,
  // marks at most a consumed epoch).
  std::vector<std::uint32_t> mark_;          ///< epoch stamps
  std::uint32_t epoch_ = 0;
  std::vector<std::vector<Vertex>> buckets_; ///< deletion repair bucket queue
  std::vector<std::uint32_t> used_levels_;   ///< non-empty buckets to clear
  std::vector<Vertex> wave_;                 ///< insert relaxation / rebuild queue
  std::vector<Vertex> affected_;             ///< deletion: invalidated subtree

  // Trial journal (insert-only probes; parents are left stale and scalar
  // aggregates restore from the begin_trial snapshot).
  struct TrialLabel {
    Vertex v;
    std::uint32_t dist;
  };
  bool trial_active_ = false;
  std::vector<TrialLabel> trial_labels_;
  std::vector<std::pair<Vertex, Vertex>> trial_edges_;
  std::uint64_t trial_sum_ = 0;
  std::uint32_t trial_reached_ = 0;
  std::uint32_t trial_max_level_ = 0;

  // Stats.
  std::uint64_t ops_ = 0;
  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t touched_ = 0;
};

/// The vector-adjacency reference oracle (pre-CSR name, kept source
/// compatible) and its flat-arena production sibling.
using DynamicBfs = DynamicBfsT<UGraph>;
using CsrDynamicBfs = DynamicBfsT<CsrUGraph>;

extern template class DynamicBfsT<UGraph>;
extern template class DynamicBfsT<CsrUGraph>;

}  // namespace bbng
