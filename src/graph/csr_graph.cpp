#include "graph/csr_graph.hpp"

#include <algorithm>

namespace bbng {

const char* to_string(GraphCore core) noexcept {
  switch (core) {
    case GraphCore::kVector: return "vector";
    case GraphCore::kCsr: return "csr";
  }
  return "?";
}

namespace detail {

void CsrRows::init(const std::vector<std::uint32_t>& capacities) {
  meta_.assign(capacities.size(), Meta{});
  live_ = 0;
  std::uint64_t offset = 0;
  for (std::size_t u = 0; u < capacities.size(); ++u) {
    meta_[u].offset = offset;
    meta_[u].capacity = capacities[u];
    offset += capacities[u];
  }
  pool_.assign(offset, 0);
}

bool CsrRows::contains(Vertex u, Vertex w) const {
  BBNG_ASSERT(u < meta_.size());
  const Meta& m = meta_[u];
  const Vertex* base = pool_.data() + m.offset;
  return std::binary_search(base, base + m.degree, w);
}

void CsrRows::insert(Vertex u, Vertex w) {
  BBNG_ASSERT(u < meta_.size());
  Meta& m = meta_[u];
  BBNG_REQUIRE_MSG(m.degree < m.capacity, "CSR row is full (row capacity is fixed at build)");
  Vertex* base = pool_.data() + m.offset;
  const auto pos = static_cast<std::uint32_t>(std::lower_bound(base, base + m.degree, w) - base);
  BBNG_REQUIRE_MSG(pos == m.degree || base[pos] != w, "duplicate edge");
  for (std::uint32_t i = m.degree; i > pos; --i) base[i] = base[i - 1];
  base[pos] = w;
  ++m.degree;
  ++live_;
}

void CsrRows::erase(Vertex u, Vertex w) {
  BBNG_ASSERT(u < meta_.size());
  Meta& m = meta_[u];
  Vertex* base = pool_.data() + m.offset;
  const auto pos = static_cast<std::uint32_t>(std::lower_bound(base, base + m.degree, w) - base);
  BBNG_REQUIRE_MSG(pos < m.degree && base[pos] == w, "edge not present");
  for (std::uint32_t i = pos + 1; i < m.degree; ++i) base[i - 1] = base[i];
  --m.degree;
  --live_;
}

void CsrRows::check_invariants() const {
  std::uint64_t degree_sum = 0;
  std::uint64_t capacity_sum = 0;  // also the next row's offset: rows sit back to back
  for (const Meta& m : meta_) {
    BBNG_ASSERT(m.offset == capacity_sum);
    BBNG_ASSERT(m.degree <= m.capacity);
    for (std::uint32_t i = 1; i < m.degree; ++i) {
      BBNG_ASSERT(pool_[m.offset + i - 1] < pool_[m.offset + i]);
    }
    degree_sum += m.degree;
    capacity_sum += m.capacity;
  }
  BBNG_ASSERT(degree_sum == live_);
  BBNG_ASSERT(capacity_sum == pool_.size());
}

}  // namespace detail

// ---------------------------------------------------------------------------
// CsrUGraph

CsrUGraph::CsrUGraph(const UGraph& g, std::uint32_t row_slack) : num_edges_(g.num_edges()) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint32_t> capacities(n);
  for (Vertex u = 0; u < n; ++u) capacities[u] = g.degree(u) + row_slack;
  rows_.init(capacities);
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : g.neighbors(u)) rows_.build_append(u, v);  // already sorted
  }
}

void CsrUGraph::add_edge(Vertex u, Vertex v) {
  BBNG_REQUIRE(u < num_vertices() && v < num_vertices());
  BBNG_REQUIRE_MSG(u != v, "self-loops are not supported");
  BBNG_REQUIRE_MSG(rows_.degree(u) < rows_.capacity(u) && rows_.degree(v) < rows_.capacity(v),
                   "CSR row is full (row capacity is fixed at build)");
  rows_.insert(u, v);  // a duplicate throws here, before either row changes
  rows_.insert(v, u);
  ++num_edges_;
}

void CsrUGraph::remove_edge(Vertex u, Vertex v) {
  BBNG_REQUIRE(u < num_vertices() && v < num_vertices());
  rows_.erase(u, v);
  rows_.erase(v, u);
  --num_edges_;
}

UGraph CsrUGraph::to_ugraph() const {
  const std::uint32_t n = num_vertices();
  UGraph g(n);
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : neighbors(u)) {
      if (u < v) g.add_edge(u, v);
    }
  }
  return g;
}

void CsrUGraph::check_invariants() const {
  rows_.check_invariants();
  BBNG_ASSERT(rows_.live_entries() == 2 * num_edges_);
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (const Vertex v : neighbors(u)) {
      BBNG_ASSERT(v != u);
      BBNG_ASSERT(rows_.contains(v, u));
    }
  }
}

// ---------------------------------------------------------------------------
// CsrGraph

CsrGraph::CsrGraph(const Digraph& g) : num_arcs_(g.num_arcs()) {
  const std::uint32_t n = g.num_vertices();
  std::vector<std::uint32_t> out_deg(n), in_deg(n, 0);
  for (Vertex u = 0; u < n; ++u) {
    out_deg[u] = g.out_degree(u);
    for (const Vertex v : g.out_neighbors(u)) ++in_deg[v];
  }
  out_.init(out_deg);
  in_.init(in_deg);
  // Counting sort: visiting tails in ascending order appends each in-row's
  // entries in ascending order too, so both arenas come out sorted.
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : g.out_neighbors(u)) {
      out_.build_append(u, v);
      in_.build_append(v, u);
    }
  }
}

Digraph CsrGraph::to_digraph() const {
  const std::uint32_t n = num_vertices();
  Digraph g(n);
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : out_neighbors(u)) g.add_arc(u, v);
  }
  return g;
}

void CsrGraph::check_invariants() const {
  out_.check_invariants();
  in_.check_invariants();
  BBNG_ASSERT(out_.live_entries() == num_arcs_);
  BBNG_ASSERT(in_.live_entries() == num_arcs_);
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (const Vertex v : out_neighbors(u)) {
      BBNG_ASSERT(v != u);
      BBNG_ASSERT(in_.contains(v, u));
    }
  }
}

CsrUGraph underlying_csr(const CsrGraph& g, Vertex skip, std::uint32_t extra_vertices,
                         std::uint32_t row_slack) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE_MSG(skip == kNoVertex || skip < n, "underlying_csr: skip is not a vertex of g");
  const std::uint32_t total = n + extra_vertices;
  // Per-vertex sorted merge of out- and in-rows: |out ∪ in| is the
  // underlying degree (braces collapse). Two passes — degrees, then fill —
  // keep the whole build one flat O(n + m) scan with zero per-row churn.
  const auto merge_row = [&](Vertex u, auto&& emit) {
    if (u == skip) return;
    const std::span<const Vertex> a = g.out_neighbors(u);
    const std::span<const Vertex> b = g.in_neighbors(u);
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      Vertex w;
      if (j == b.size() || (i < a.size() && a[i] < b[j])) {
        w = a[i++];
      } else if (i == a.size() || b[j] < a[i]) {
        w = b[j++];
      } else {
        w = a[i++];
        ++j;  // brace: present in both rows, emit once
      }
      if (w != skip) emit(w);
    }
  };

  std::vector<std::uint32_t> capacities(total, n);  // extra rows: one slot per real vertex
  for (Vertex u = 0; u < n; ++u) {
    capacities[u] = row_slack;
    merge_row(u, [&](Vertex) { ++capacities[u]; });
  }
  detail::CsrRows rows;
  rows.init(capacities);
  std::uint64_t edges = 0;
  for (Vertex u = 0; u < n; ++u) {
    merge_row(u, [&](Vertex w) {
      rows.build_append(u, w);
      if (u < w) ++edges;
    });
  }
  return CsrUGraph(std::move(rows), edges);
}

}  // namespace bbng
