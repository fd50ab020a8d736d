// Property and differential tests for the CSR graph core: rebuild round
// trips (UGraph/Digraph → CSR → back), edge ops within fixed row capacity,
// degree/offset/arena invariants after every mutation, the full-row insert
// precondition, in/out adjacency consistency, and the underlying_csr merge
// against the vector-core best_response_base — on the same seeded 200-graph
// mixed-budget corpus test_delta_eval.cpp uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "game/strategy_eval.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/ugraph.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

/// Random instance in the mixed-budget regime of test_delta_eval.cpp.
Digraph random_instance(std::uint32_t n, Rng& rng) {
  const std::uint64_t sigma = n / 2 + rng.next_below(3 * n / 2 + 1);
  return random_profile(random_budgets(n, sigma, rng), rng);
}

/// Every observable of the two undirected cores must agree exactly:
/// degrees, sorted neighbour spans, membership, and edge count.
void expect_same_ugraph(const UGraph& ref, const CsrUGraph& csr) {
  ASSERT_EQ(ref.num_vertices(), csr.num_vertices());
  ASSERT_EQ(ref.num_edges(), csr.num_edges());
  for (Vertex u = 0; u < ref.num_vertices(); ++u) {
    ASSERT_EQ(ref.degree(u), csr.degree(u)) << "u " << u;
    const auto a = ref.neighbors(u);
    const auto b = csr.neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "u " << u;
    for (const Vertex v : a) ASSERT_TRUE(csr.has_edge(u, v));
  }
  csr.check_invariants();
}

TEST(CsrUGraphProperty, RebuildRoundTripOn200Graphs) {
  Rng rng(7101);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 10);
    const UGraph ref = random_instance(n, rng).underlying();
    const CsrUGraph csr(ref);
    expect_same_ugraph(ref, csr);
    EXPECT_TRUE(csr.to_ugraph() == ref) << "round " << round;
  }
}

TEST(CsrUGraphProperty, EdgeOpWalkMatchesVectorCore) {
  Rng rng(7102);
  for (int round = 0; round < 60; ++round) {
    const std::uint32_t n = 6 + static_cast<std::uint32_t>(round % 9);
    UGraph ref = random_instance(n, rng).underlying();
    // n − 1 spare slots per row: any simple graph on n vertices fits, so the
    // walk reaches every insert/erase shift a pristine rebuild never does.
    CsrUGraph csr(ref, /*row_slack=*/n - 1);
    std::set<std::pair<Vertex, Vertex>> edges;
    for (Vertex u = 0; u < n; ++u) {
      for (const Vertex v : ref.neighbors(u)) {
        if (u < v) edges.emplace(u, v);
      }
    }
    for (int step = 0; step < 300; ++step) {
      const Vertex u = static_cast<Vertex>(rng.next_below(n));
      const Vertex v = static_cast<Vertex>(rng.next_below(n));
      if (u == v) continue;
      const auto key = std::minmax(u, v);
      if (edges.count(key) != 0U) {
        ref.remove_edge(u, v);
        csr.remove_edge(u, v);
        edges.erase(key);
      } else {
        ref.add_edge(u, v);
        csr.add_edge(u, v);
        edges.insert(key);
      }
      csr.check_invariants();
    }
    expect_same_ugraph(ref, csr);
    EXPECT_TRUE(csr.to_ugraph() == ref) << "round " << round;
  }
}

TEST(CsrUGraphProperty, FullRowInsertIsRejectedAndLeavesGraphUnchanged) {
  // One slot of slack per row: the edge {0,1} fills row 1, while row 4 keeps
  // its slot. Inserting {1,4} from either end must throw before row 4 is
  // written, whichever endpoint the caller names first.
  UGraph ref(5);
  ref.add_edge(1, 2);
  CsrUGraph csr(ref, /*row_slack=*/1);
  csr.add_edge(0, 1);
  ref.add_edge(0, 1);
  ASSERT_EQ(csr.rows().degree(1), csr.rows().capacity(1));
  ASSERT_LT(csr.rows().degree(4), csr.rows().capacity(4));
  EXPECT_THROW(csr.add_edge(1, 4), std::invalid_argument);
  EXPECT_THROW(csr.add_edge(4, 1), std::invalid_argument);
  csr.check_invariants();
  EXPECT_TRUE(csr.to_ugraph() == ref);
  expect_same_ugraph(ref, csr);

  // The rejected inserts used none of row 4's slot.
  csr.add_edge(4, 3);
  ref.add_edge(4, 3);
  expect_same_ugraph(ref, csr);
}

TEST(CsrGraphProperty, DigraphRoundTripOn200Graphs) {
  Rng rng(7104);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 10);
    const Digraph ref = random_instance(n, rng);
    const CsrGraph csr(ref);
    csr.check_invariants();
    ASSERT_EQ(ref.num_arcs(), csr.num_arcs());
    for (Vertex u = 0; u < n; ++u) {
      ASSERT_EQ(ref.out_degree(u), csr.out_degree(u));
      const auto a = ref.out_neighbors(u);
      const auto b = csr.out_neighbors(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "u " << u;
      // In-adjacency is the transpose, checked entry by entry.
      for (const Vertex v : a) {
        const auto in = csr.in_neighbors(v);
        ASSERT_TRUE(std::binary_search(in.begin(), in.end(), u)) << u << "->" << v;
      }
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(ref.is_brace(u, v), csr.is_brace(u, v));
      }
    }
    EXPECT_TRUE(csr.to_digraph() == ref) << "round " << round;
  }
}

TEST(CsrGraphProperty, UnderlyingCsrMatchesBestResponseBase) {
  Rng rng(7105);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 10);
    const Digraph g = random_instance(n, rng);
    const CsrGraph csr(g);
    for (Vertex player = 0; player < n; ++player) {
      // The vector-core substrate, with the extra super-source slot the
      // delta evaluator appends.
      UGraph ref(n + 1);
      add_stripped_underlying(g, player, ref);
      const CsrUGraph merged =
          underlying_csr(csr, /*skip=*/player, /*extra_vertices=*/1, /*row_slack=*/1);
      merged.check_invariants();
      expect_same_ugraph(ref, merged);
      // The super-source row holds an edge to every real vertex.
      ASSERT_EQ(merged.rows().capacity(n), n);
    }
    // Without a skip vertex the merge is plain underlying(G).
    const CsrUGraph whole = underlying_csr(csr);
    expect_same_ugraph(g.underlying(), whole);
  }
}

TEST(CsrGraphProperty, UnderlyingCsrRejectsSkipOutsideTheGraph) {
  const Digraph g = cycle_digraph(6);
  const CsrGraph csr(g);
  EXPECT_THROW((void)underlying_csr(csr, /*skip=*/6), std::invalid_argument);
  EXPECT_THROW((void)underlying_csr(csr, /*skip=*/kNoVertex - 1, /*extra_vertices=*/1),
               std::invalid_argument);
  // kNoVertex still skips nothing.
  expect_same_ugraph(g.underlying(), underlying_csr(csr, kNoVertex));
}

TEST(CsrGraphProperty, GraphCoreNames) {
  EXPECT_STREQ(to_string(GraphCore::kVector), "vector");
  EXPECT_STREQ(to_string(GraphCore::kCsr), "csr");
}

}  // namespace
}  // namespace bbng
