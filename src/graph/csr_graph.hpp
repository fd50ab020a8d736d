// Flat CSR (compressed sparse row) graph cores.
//
// Digraph/UGraph keep one heap-allocated std::vector per vertex, which is
// ideal for the game's strategy moves but poison for large-n sweeps: every
// neighbour scan chases a pointer to a tiny allocation, and allocator
// traffic dominates at n = 10⁶ (the ROADMAP's supported size). The types
// here store ALL adjacency in one contiguous arena (the CSRGraph /
// ResearchWorkspace exemplar of SNIPPETS.md snippet 3, and the layout the
// SPAA 2021 stepping-algorithms implementations batch frontiers over):
//
//   * CsrRows     — the shared arena: per-row (offset, degree, capacity)
//                   metadata over one flat Vertex pool, with sorted-insert /
//                   erase inside a row. Every row's capacity is fixed when
//                   the arena is built; inserting into a full row is a
//                   precondition failure.
//   * CsrUGraph   — drop-in undirected sibling of UGraph (same sorted-row
//                   semantics, same preconditions) built from a UGraph in
//                   O(n + m). Rows stay sorted, so neighbour ITERATION ORDER
//                   is identical to UGraph's — that is what makes every
//                   consumer (BFS trees, deletion-repair frontiers, delta
//                   scans) bit-identical across cores, not merely
//                   equal-in-distribution.
//   * CsrGraph    — read-only directed snapshot of a Digraph with contiguous
//                   out- AND in-adjacency (the Wilson–Zwick forward-backward
//                   view), built by an O(n + m) counting sort.
//
// The one production writer is the delta oracle (CsrDynamicBfs inside
// CsrDeltaEvaluator), which inserts and deletes (super-source, seed) edges
// only. underlying_csr sizes its rows for exactly that traffic: one spare
// slot per real row, and a super-source row that holds every real vertex.
//
// The GraphCore flag mirrors the `incremental` flag pattern: consumers keep
// both cores callable so differential suites can run them side by side.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/ugraph.hpp"
#include "util/assert.hpp"

namespace bbng {

/// Which adjacency representation a consumer routes its hot loops through.
/// Both produce bit-identical results (rows are sorted in both cores); the
/// vector core stays available as the differential-testing reference.
enum class GraphCore : std::uint8_t {
  kVector,  ///< per-vertex std::vector adjacency (Digraph/UGraph)
  kCsr,     ///< flat CSR arena (CsrGraph/CsrUGraph)
};

[[nodiscard]] const char* to_string(GraphCore core) noexcept;

namespace detail {

/// The flat adjacency arena shared by both CSR graph types: one Vertex pool,
/// one (offset, degree, capacity) record per row. Rows are laid out back to
/// back in row order, each with a capacity fixed at build time; rows are kept
/// sorted and duplicate-free. All mutators preserve `check_invariants()`.
class CsrRows {
 public:
  /// Lay out one empty row per entry of `capacities`, back to back. Fill rows
  /// with build_append afterwards; entries of one row must arrive ascending.
  void init(const std::vector<std::uint32_t>& capacities);

  /// Bulk-build append of `w` to row `u` (ascending within the row).
  void build_append(Vertex u, Vertex w) {
    Meta& m = meta_[u];
    BBNG_ASSERT(m.degree < m.capacity);
    BBNG_ASSERT(m.degree == 0 || pool_[m.offset + m.degree - 1] < w);
    pool_[m.offset + m.degree++] = w;
    ++live_;
  }

  [[nodiscard]] std::uint32_t num_rows() const noexcept {
    return static_cast<std::uint32_t>(meta_.size());
  }
  [[nodiscard]] std::uint32_t degree(Vertex u) const {
    BBNG_ASSERT(u < meta_.size());
    return meta_[u].degree;
  }
  [[nodiscard]] std::uint32_t capacity(Vertex u) const {
    BBNG_ASSERT(u < meta_.size());
    return meta_[u].capacity;
  }
  [[nodiscard]] std::span<const Vertex> row(Vertex u) const {
    BBNG_ASSERT(u < meta_.size());
    const Meta& m = meta_[u];
    return {pool_.data() + m.offset, m.degree};
  }

  /// Binary search within the (sorted) row — O(log degree).
  [[nodiscard]] bool contains(Vertex u, Vertex w) const;

  /// Sorted insert. Preconditions: `w` absent from row `u`, and row `u`
  /// below its capacity.
  void insert(Vertex u, Vertex w);

  /// Sorted erase. Precondition: `w` present in row `u`.
  void erase(Vertex u, Vertex w);

  [[nodiscard]] std::uint64_t live_entries() const noexcept { return live_; }

  /// Abort (BBNG_ASSERT) unless every structural invariant holds: rows
  /// sorted + strictly increasing, degree ≤ capacity, rows back to back in
  /// row order, Σ degree == live, Σ capacity == pool size.
  void check_invariants() const;

 private:
  struct Meta {
    std::uint64_t offset = 0;
    std::uint32_t degree = 0;
    std::uint32_t capacity = 0;
  };

  std::vector<Meta> meta_;
  std::vector<Vertex> pool_;
  std::uint64_t live_ = 0;
};

}  // namespace detail

class CsrGraph;  // defined below

/// Undirected simple graph on a flat CSR arena — the sibling of UGraph with
/// the same sorted-row semantics and neighbour iteration order for the hot
/// BFS/delta paths. Rows have fixed capacity: add_edge needs a spare slot in
/// both rows.
class CsrUGraph {
 public:
  /// Rebuild `g` in O(n + m), giving every row `row_slack` spare entries
  /// (n − 1 fits any simple graph on the same vertices).
  explicit CsrUGraph(const UGraph& g, std::uint32_t row_slack = 0);

  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return rows_.num_rows(); }
  [[nodiscard]] std::uint64_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    BBNG_ASSERT(u < num_vertices() && v < num_vertices());
    return rows_.contains(u, v);
  }

  /// Add the (simple) edge {u,v}. Preconditions: u≠v, not already present,
  /// and a spare slot in both rows. Both rows are checked before either is
  /// written, so a rejected insert leaves the graph unchanged.
  void add_edge(Vertex u, Vertex v);

  /// Remove the edge {u,v}. Precondition: present.
  void remove_edge(Vertex u, Vertex v);

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex u) const { return rows_.row(u); }

  [[nodiscard]] std::uint32_t degree(Vertex u) const { return rows_.degree(u); }

  /// Round trip back to the vector core (differential tests compare this
  /// against the shadow UGraph with operator==).
  [[nodiscard]] UGraph to_ugraph() const;

  /// Structural invariants: arena invariants + row symmetry (v in row(u) ⇔
  /// u in row(v)), no self-loops, 2·num_edges == live entries.
  void check_invariants() const;

  [[nodiscard]] const detail::CsrRows& rows() const noexcept { return rows_; }

 private:
  friend CsrUGraph underlying_csr(const CsrGraph&, Vertex, std::uint32_t, std::uint32_t);
  CsrUGraph(detail::CsrRows rows, std::uint64_t edges)
      : rows_(std::move(rows)), num_edges_(edges) {}

  detail::CsrRows rows_;
  std::uint64_t num_edges_ = 0;
};

/// Read-only directed snapshot of a Digraph with contiguous out- AND
/// in-adjacency, so both orientations of every arc are O(degree) scans with
/// no per-vertex allocations. Built in O(n + m) by counting sort.
class CsrGraph {
 public:
  explicit CsrGraph(const Digraph& g);

  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return out_.num_rows(); }
  [[nodiscard]] std::uint64_t num_arcs() const noexcept { return num_arcs_; }

  [[nodiscard]] bool has_arc(Vertex u, Vertex v) const {
    BBNG_ASSERT(u < num_vertices() && v < num_vertices());
    return out_.contains(u, v);
  }

  [[nodiscard]] std::span<const Vertex> out_neighbors(Vertex u) const { return out_.row(u); }
  [[nodiscard]] std::span<const Vertex> in_neighbors(Vertex u) const { return in_.row(u); }
  [[nodiscard]] std::uint32_t out_degree(Vertex u) const { return out_.degree(u); }
  [[nodiscard]] std::uint32_t in_degree(Vertex u) const { return in_.degree(u); }

  [[nodiscard]] bool is_brace(Vertex u, Vertex v) const {
    return has_arc(u, v) && has_arc(v, u);
  }

  /// Round trip back to the vector core.
  [[nodiscard]] Digraph to_digraph() const;

  /// Structural invariants: both arenas' invariants + transpose consistency
  /// (v in out(u) ⇔ u in in(v)), no self-loops, arc count == live entries.
  void check_invariants() const;

  [[nodiscard]] const detail::CsrRows& out_rows() const noexcept { return out_; }
  [[nodiscard]] const detail::CsrRows& in_rows() const noexcept { return in_; }

 private:
  detail::CsrRows out_;
  detail::CsrRows in_;
  std::uint64_t num_arcs_ = 0;
};

/// Sentinel for "no vertex" (e.g. underlying_csr's skip parameter).
inline constexpr Vertex kNoVertex = 0xffffffffU;

/// Underlying undirected simple graph of a CSR snapshot (braces collapse to
/// one edge), in O(n + m) with no vector-core detour. Every edge incident to
/// `skip` is dropped and `skip` left isolated (kNoVertex skips nothing; any
/// other `skip` must be a vertex of g). Each of the n real rows gets
/// `row_slack` spare entries. `extra_vertices` appends that many trailing
/// isolated vertices (the delta evaluator's virtual super-source), each with
/// capacity n, enough to hold an edge to every real vertex. This is the CSR
/// sibling of Digraph::underlying() + strategy_eval's stripped-base builder
/// in one pass.
[[nodiscard]] CsrUGraph underlying_csr(const CsrGraph& g, Vertex skip = kNoVertex,
                                       std::uint32_t extra_vertices = 0,
                                       std::uint32_t row_slack = 0);

}  // namespace bbng
