// Fast evaluation of candidate strategies for one player.
//
// To score a candidate strategy S of player u we do NOT rebuild the
// realization: since every u–v path starts with an edge from u to one of its
// neighbours, and a shortest path never revisits u,
//
//     dist_{G[u←S]}(u, v) = 1 + dist_{G−u}(s, v)  minimised over
//     s ∈ S ∪ In(u),
//
// where G−u drops vertex u and In(u) is the (fixed) set of players pointing
// at u. So we precompute H = underlying(G) − u once and score each candidate
// with a single multi-source BFS on H. Component bookkeeping for the MAX
// version's (κ−1)n² term is also precomputed: κ(G[u←S]) = 1 + number of
// H-components (other than u's empty slot) containing no seed.
//
// evaluate() is const and takes an external scratch object, so the exact
// solver can score candidates from many threads concurrently.
//
// DeltaEvaluatorT is the incremental sibling: instead of one multi-source
// BFS per candidate it maintains a dynamic BFS from a virtual super-source
// wired to every seed (strategy heads ∪ in-neighbours), so a single-head
// swap is two dynamic edge operations whose cost is proportional to the
// region of the graph whose distance actually changes — not to the whole
// graph. It is a template over the graph core: DeltaEvaluator (= UGraph)
// keeps the vector-adjacency reference semantics, CsrDeltaEvaluator
// (= CsrUGraph) runs the same algorithm on the flat CSR arena; both produce
// bit-identical costs and counters.
//
// Every evaluator below shares one head-set interface (add_head,
// remove_head, has_head, cost, cost_with_head, bfs_avoided), so each move set
// (greedy construction, swap descent, the first-improving swap scan, churn's
// greedy trim) is written once as a template over it; the free
// cost_with_heads probes a whole candidate list on any of them, in one
// kernel call on TableEvaluator. NaiveEvaluator puts
// StrategyEvaluator behind that interface, and with_move_evaluator is the one
// place that picks a player's evaluator: TableEvaluator for n ≤
// kTableEvaluatorLimit, naive, CSR delta or vector delta above it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "game/game.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/csr_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/dynamic_bfs.hpp"
#include "graph/ugraph.hpp"

namespace bbng {

/// The metric substrate both evaluators (and the solver subsystem's bound
/// machinery) score candidates on: underlying(G) with every edge incident to
/// `player` removed, so `player` is an isolated vertex. All u–v distances of
/// a candidate strategy S factor through this graph as
/// 1 + dist_base(S ∪ In(u), v).
[[nodiscard]] UGraph best_response_base(const Digraph& g, Vertex player);

/// Players owning an arc into `player` — the fixed half of the seed set that
/// every candidate strategy of `player` inherits for free.
[[nodiscard]] std::vector<Vertex> player_in_neighbors(const Digraph& g, Vertex player);

/// Add underlying(G) minus every edge incident to `player` into `base`
/// (which may have extra trailing vertices; they stay isolated). Both
/// evaluators derive their metric substrate through this one helper (the CSR
/// core through the equivalent underlying_csr) so they cannot silently
/// diverge.
void add_stripped_underlying(const Digraph& g, Vertex player, UGraph& base);

class StrategyEvaluator {
 public:
  /// Scratch space; one per thread.
  struct Scratch {
    explicit Scratch(std::uint32_t n) : runner(n) { seeds.reserve(n); comp_hit.assign(n, 0); }
    BfsRunner runner;
    std::vector<Vertex> seeds;
    std::vector<std::uint32_t> comp_hit;  // epoch-stamped seed-component marks
    std::uint32_t epoch = 0;
  };

  StrategyEvaluator(const Digraph& g, Vertex player, CostVersion version);

  [[nodiscard]] Vertex player() const noexcept { return player_; }
  [[nodiscard]] CostVersion version() const noexcept { return version_; }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }

  /// Cost of `player` if it plays `strategy` (heads distinct, ≠ player).
  [[nodiscard]] std::uint64_t evaluate(std::span<const Vertex> strategy, Scratch& scratch) const;

  /// Cost of the player's current strategy in the original realization.
  [[nodiscard]] std::uint64_t current_cost() const noexcept { return current_cost_; }

  /// The player's current strategy (sorted heads).
  [[nodiscard]] const std::vector<Vertex>& current_strategy() const noexcept {
    return current_strategy_;
  }

 private:
  Vertex player_;
  CostVersion version_;
  std::uint32_t n_;
  UGraph base_;                        ///< underlying(G) with `player` isolated
  std::vector<Vertex> in_neighbors_;   ///< players with an arc to `player`
  std::vector<std::uint32_t> comp_;    ///< component ids of base_ (player excluded)
  std::uint32_t base_components_ = 0;  ///< #components of base_ − player's singleton
  std::vector<Vertex> current_strategy_;
  std::uint64_t current_cost_ = 0;
};

/// Incremental strategy evaluator for one player (single-head diffs).
///
/// The candidate's cost is read off a dynamic BFS tree rooted at a virtual
/// super-source `vsrc = n` that owns one edge per distinct seed, so
///
///     dist_{G[u←S]}(u, v) = dist_aug(vsrc, v)   for every v ≠ u,
///
/// and swapping head h for head t is delete(vsrc,h) + insert(vsrc,t) on the
/// dynamic oracle — no from-scratch BFS. Seeds are reference-counted because
/// a head that is also an in-neighbour keeps its super-source edge when the
/// head is dropped. Aggregates come from the oracle in O(1); the MAX
/// version's (κ−1)n² term reuses the precomputed component ids exactly like
/// StrategyEvaluator. Results agree bit-for-bit with
/// StrategyEvaluator::evaluate AND across graph cores
/// (tests/test_delta_eval.cpp and tests/test_csr_graph.cpp enforce this).
///
/// A DeltaEvaluatorT is stateful and single-threaded; parallel sweeps build
/// one per worker (see verify_swap_equilibrium). Move sets reach it through
/// with_move_evaluator, and only on graphs above kTableEvaluatorLimit.
template <class GraphT>
class DeltaEvaluatorT {
 public:
  /// `rebuild_threshold` is forwarded to the dynamic oracle (0 = auto).
  DeltaEvaluatorT(const Digraph& g, Vertex player, CostVersion version,
                  std::uint32_t rebuild_threshold = 0)
      : player_(player),
        version_(version),
        n_(g.num_vertices()),
        vsrc_(n_),
        // MAX needs the oracle's per-level counts for max_dist(); SUM skips
        // that bookkeeping on every label change.
        bfs_(build_base(g, player), vsrc_, rebuild_threshold, version == CostVersion::Max),
        is_head_(n_, 0),
        seed_mult_(n_, 0),
        seed_pos_(n_, kUnreachable) {
    // Component bookkeeping on the seedless base: the count includes the
    // player's empty slot and the isolated super-source, hence the −2.
    const Components comps = connected_components(bfs_.graph());
    comp_ = comps.id;
    comp_hit_.assign(comps.count, 0);
    BBNG_ASSERT(comps.count >= 2);
    base_components_ = comps.count - 2;

    in_neighbors_ = player_in_neighbors(g, player_);
    for (const Vertex w : in_neighbors_) {
      if (++seed_mult_[w] == 1) {
        seed_pos_[w] = static_cast<std::uint32_t>(seed_list_.size());
        seed_list_.push_back(w);
        bfs_.insert_edge(vsrc_, w);
      }
    }
    current_strategy_.assign(g.out_neighbors(player_).begin(), g.out_neighbors(player_).end());
    for (const Vertex h : current_strategy_) add_head(h);
    current_cost_ = cost();
    evaluations_ = 0;  // construction does not count as a query
  }

  [[nodiscard]] Vertex player() const noexcept { return player_; }
  [[nodiscard]] CostVersion version() const noexcept { return version_; }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }

  /// Cost of the player's current strategy in the original realization.
  [[nodiscard]] std::uint64_t current_cost() const noexcept { return current_cost_; }

  /// The player's strategy in the original realization (sorted heads).
  [[nodiscard]] const std::vector<Vertex>& current_strategy() const noexcept {
    return current_strategy_;
  }

  /// True iff v is a head of the evaluator's present head set.
  [[nodiscard]] bool has_head(Vertex v) const {
    BBNG_ASSERT(v < n_);
    return is_head_[v] != 0;
  }

  /// In(player), ascending: the seeds every strategy gets for free.
  [[nodiscard]] const std::vector<Vertex>& in_neighbors() const noexcept {
    return in_neighbors_;
  }

  /// Add head t (must not be present, ≠ player). O(region improved).
  void add_head(Vertex t) {
    BBNG_REQUIRE_MSG(t != player_, "strategy head equals the player");
    BBNG_REQUIRE(t < n_);
    BBNG_REQUIRE_MSG(is_head_[t] == 0, "head already present");
    is_head_[t] = 1;
    if (++seed_mult_[t] == 1) {
      seed_pos_[t] = static_cast<std::uint32_t>(seed_list_.size());
      seed_list_.push_back(t);
      bfs_.insert_edge(vsrc_, t);
    }
  }

  /// Remove head h (must be present). O(region invalidated), with the
  /// oracle's full-recompute fallback past its touched-vertex threshold.
  void remove_head(Vertex h) {
    BBNG_REQUIRE(h < n_);
    BBNG_REQUIRE_MSG(is_head_[h] != 0, "head not present");
    is_head_[h] = 0;
    if (--seed_mult_[h] == 0) {
      const std::uint32_t pos = seed_pos_[h];
      const Vertex last = seed_list_.back();
      seed_list_[pos] = last;
      seed_pos_[last] = pos;
      seed_list_.pop_back();
      seed_pos_[h] = kUnreachable;
      bfs_.delete_edge(vsrc_, h);
    }
  }

  /// Cost of the present head set. O(1) for SUM; O(#seeds) for MAX.
  [[nodiscard]] std::uint64_t cost() {
    ++evaluations_;
    const std::uint64_t inf = cinf(n_);
    if (version_ == CostVersion::Sum) {
      // Every vertex the oracle reaches (bar vsrc itself) sits at its exact
      // game distance from the player; the player is never reached.
      const std::uint64_t unreached = n_ - bfs_.reached();
      return bfs_.sum_dist() + unreached * inf;
    }
    // MAX: κ − 1 = base components containing no current seed.
    ++epoch_;
    std::uint32_t seeded_components = 0;
    for (const Vertex s : seed_list_) {
      const std::uint32_t c = comp_[s];
      if (comp_hit_[c] != epoch_) {
        comp_hit_[c] = epoch_;
        ++seeded_components;
      }
    }
    const std::uint32_t unseeded = base_components_ - seeded_components;
    if (unseeded == 0) return bfs_.max_dist();  // local diameter; κ == 1
    return inf + static_cast<std::uint64_t>(unseeded) * inf;
  }

  /// Cost of heads ∪ {t} WITHOUT committing: the insert runs as a journaled
  /// oracle trial and is rolled back before returning, so a probe costs one
  /// relaxation wave + O(touched) undo — never a deletion repair. This is
  /// the hot query of every swap scan (drop a head once, probe all targets).
  [[nodiscard]] std::uint64_t cost_with_head(Vertex t) {
    BBNG_REQUIRE_MSG(t != player_, "strategy head equals the player");
    BBNG_REQUIRE(t < n_);
    BBNG_REQUIRE_MSG(is_head_[t] == 0, "head already present");
    if (seed_mult_[t] > 0) return cost();  // already seeded via an in-neighbour
    bfs_.begin_trial();
    bfs_.insert_edge(vsrc_, t);
    seed_list_.push_back(t);  // seed_pos_ untouched: popped before any removal
    const std::uint64_t probed = cost();
    seed_list_.pop_back();
    bfs_.rollback_trial();
    return probed;
  }

  // ---- instrumentation ----
  /// cost() queries answered since construction.
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }
  /// Queries that were served incrementally, i.e. without any full BFS
  /// recompute inside the oracle (evaluations − fallback rebuilds).
  [[nodiscard]] std::uint64_t bfs_avoided() const noexcept {
    const std::uint64_t rebuilt = bfs_.full_rebuilds();
    return evaluations_ > rebuilt ? evaluations_ - rebuilt : 0;
  }
  /// The underlying dynamic distance oracle (read-only introspection).
  [[nodiscard]] const DynamicBfsT<GraphT>& oracle() const noexcept { return bfs_; }

 private:
  [[nodiscard]] static GraphT build_base(const Digraph& g, Vertex player) {
    if constexpr (std::is_same_v<GraphT, UGraph>) {
      // n+1 vertices: underlying(G) minus `player`'s edges, plus the (still
      // isolated) virtual super-source at index n. Seed edges are inserted
      // through the oracle afterwards so the BFS tree grows incrementally.
      UGraph base(g.num_vertices() + 1);
      add_stripped_underlying(g, player, base);
      return base;
    } else {
      // CSR core: one O(n+m) merge of out/in rows per vertex, braces
      // collapsed, `player` skipped. Rows have fixed capacity: each real row
      // holds at most one seed edge (its one slot of slack), and vsrc's row
      // is built to hold every real vertex.
      return underlying_csr(CsrGraph(g), /*skip=*/player, /*extra_vertices=*/1,
                            /*row_slack=*/1);
    }
  }

  Vertex player_;
  CostVersion version_;
  std::uint32_t n_;
  Vertex vsrc_;                        ///< virtual super-source id (= n_)
  DynamicBfsT<GraphT> bfs_;            ///< oracle over base_ + seed edges
  std::vector<Vertex> in_neighbors_;   ///< players with an arc to `player`
  std::vector<std::uint32_t> comp_;    ///< component ids of the seedless base
  std::uint32_t base_components_ = 0;  ///< #components − player − vsrc slots
  std::vector<std::uint8_t> is_head_;  ///< membership of the present head set
  std::vector<std::uint32_t> seed_mult_;  ///< head + in-neighbour refcount
  std::vector<Vertex> seed_list_;         ///< distinct current seeds
  std::vector<std::uint32_t> seed_pos_;   ///< index into seed_list_
  std::vector<std::uint32_t> comp_hit_;   ///< epoch-stamped component marks
  std::uint32_t epoch_ = 0;
  std::vector<Vertex> current_strategy_;
  std::uint64_t current_cost_ = 0;
  std::uint64_t evaluations_ = 0;
};

/// The vector-adjacency reference evaluator (pre-CSR name, kept source
/// compatible) and its flat-arena production sibling.
using DeltaEvaluator = DeltaEvaluatorT<UGraph>;
using CsrDeltaEvaluator = DeltaEvaluatorT<CsrUGraph>;

extern template class DeltaEvaluatorT<UGraph>;
extern template class DeltaEvaluatorT<CsrUGraph>;

/// One state's all-pairs distance table, shared by the players of a loop
/// that solves many of them on one fixed graph (the Nash audit, churn's
/// refreshes). For n ≤ 64 it holds, from one word-parallel BFS per source
/// over underlying(G):
///
///     row_s[v] = 1 + d_G(s, v)   (Cinf = n² across components),
///
/// the component count, and per vertex p the mask affected(p): the sources
/// s for which p is the only previous-level neighbour of some vertex in
/// BFS(s) (the BFS sees this as a vertex reached by one frontier vertex and
/// not two). By induction on BFS level, row s of G − p equals row s of G
/// everywhere but column p exactly when bit s of affected(p) is clear, which
/// is how TableEvaluator derives a player's G − p table from this one.
///
/// The table fills itself on its second request(), so a loop that solves
/// one player pays nothing; above n = 64 request() always returns null. It
/// serves every graph that agrees with its own outside the player's own
/// out-arcs (a player's G − u does not see them), such as solve()'s
/// degree-normalised copies. Not thread-safe: one per loop.
class StateTable {
 public:
  /// `g` must outlive the table and stay unchanged while it is in use.
  explicit StateTable(const Digraph& g) : g_(&g), n_(g.num_vertices()) {}

  /// This table, filled, from the second request on; null on the first and
  /// whenever n > 64.
  [[nodiscard]] const StateTable* request();

  [[nodiscard]] const Digraph& graph() const noexcept { return *g_; }
  [[nodiscard]] std::span<const std::uint32_t> row(Vertex s) const {
    BBNG_ASSERT(s < n_ && !rows_.empty());
    return {rows_.data() + std::size_t{s} * n_, n_};
  }
  /// Sources whose row changes beyond column p when p is deleted.
  [[nodiscard]] std::uint64_t affected(Vertex p) const { return affected_[p]; }
  [[nodiscard]] std::uint32_t components() const noexcept { return components_; }

  /// vertex_cost(graph(), u, version), read off row u.
  [[nodiscard]] std::uint64_t vertex_cost(Vertex u, CostVersion version) const;
  /// Whether the table serves `player`'s evaluator on g: g agrees with
  /// graph() on every arc but `player`'s out-arcs. O(m) unless g is graph().
  [[nodiscard]] bool serves(const Digraph& g, Vertex player) const;

 private:
  void fill();

  const Digraph* g_;
  std::uint32_t n_;
  std::uint32_t requests_ = 0;
  std::uint32_t components_ = 0;
  std::vector<std::uint32_t> rows_;      ///< n×n, row-major by source
  std::vector<std::uint64_t> affected_;  ///< per vertex: affected sources
  std::vector<std::uint64_t> reach_;     ///< per vertex: its component's vertices
};

/// vertex_cost(g, player, version), read off `state`'s row of the player when
/// the table is filled and g is its graph (the player's out-arcs included);
/// otherwise one BFS over g.underlying(). A null `state` always takes the BFS.
[[nodiscard]] std::uint64_t player_cost(const Digraph& g, Vertex player, CostVersion version,
                                        StateTable* state);

/// Strategy evaluator over a precomputed base-distance table: the
/// DeltaEvaluatorT interface, scored without any BFS after construction.
///
/// Construction fills the n×n head-cover table of the stripped base (g's
/// underlying graph without the player):
///
///     row_t[v] = 1 + d_base(t, v)   (Cinf = n² across components).
///
/// The fill path depends on n alone, and both fill the same table. For
/// n ≤ 64 it reads one adjacency word per vertex straight off g and runs one
/// row loop. With a filled StateTable of g's state, each row s whose bit in
/// the table's affected(player) is clear equals the state's row s but for
/// column player (StateTable's lemma), so it is copied and that column set
/// to Cinf. Every other row, and every row without a table, is filled by a
/// word-parallel BFS in G − u: one bit loop per level writes each frontier
/// vertex's entry and ORs in its adjacency word, and that OR minus the seen
/// set is the next frontier. A loop's StateTable fills lazily, on its second
/// request, so the first player it serves gets no table and BFSes every row.
/// The table must serve g: g agrees with its graph on every arc but the
/// player's own out-arcs (StateTable::serves, checked in debug builds).
/// Above n = 64 the fill ignores any table and runs ⌈(n−1)/64⌉ packed sweeps
/// of the 64-lane kernel (CsrMultiBfs::sweep in graph/multi_bfs.hpp, which
/// publishes no `bfs.multi.*` counters) over underlying_csr(CsrGraph(g),
/// player). Either fill also collects In(u), the player's in-neighbours in
/// ascending order (the arcs into the player it skips, or the CSR in-row),
/// and the evaluator keeps that list: it seeds the level-0 cover, and
/// in_neighbors() hands it to exact_bb's dominance elimination, so no caller
/// re-derives it from g.
///
/// The rows are the precomputed backward distances of the Wilson–Zwick
/// forward/backward split (PAPERS.md): a seed set S ∪ In(u) serves v at min
/// over its seeds of row_s[v]. The present head set keeps a stack of such
/// covers (level 0 = the in-neighbour cover, level i = level i−1 ∧ row of
/// the i-th head), so add_head and a LIFO remove_head are one O(n) pass or
/// O(1). Probing t is one O(n) pass over min(cover, row_t): the sum for
/// SUM; for MAX the max, with κ − 1 read off one representative vertex per
/// base component (a component is seeded iff its representative is covered
/// below Cinf). The representatives are read off the filled table: v is one
/// iff no earlier representative's row reaches it. The player's own cover
/// column is 0, so it drops out of both aggregates. Every cost is exact and
/// bit-identical to StrategyEvaluator::evaluate (tests/test_delta_eval.cpp).
///
/// All probes of one cover meet the same forward half, so cost_with_heads
/// scores a whole candidate list in one kernel call, folding every row into
/// a caller's min-cover on the way (exact_bb's seed-distance bound). A
/// single probe (cost_with_head) and add_head's cover pass call a one-row
/// kernel instead: at small n a batch kernel's set-up costs more than the
/// row. Both share one kernel body: free integer min/add loops
/// (strategy_eval.cpp), built as target_clones("avx2", "default") where the
/// guard allows it (x86-64 ELF under GCC or Clang, except ThreadSanitizer
/// builds; one plain build everywhere else). Both clones return the same
/// bits. SUM accumulates in 64 bits. A MAX batch goes to the kernel while
/// the cover seeds every base component; otherwise each candidate is scored
/// alone, and one that leaves a component unseeded costs
/// (1 + unseeded)·Cinf and only folds its row.
///
/// O(n²) memory with Cinf stored as uint32, so n ≤ 65535; the exact solvers
/// and the move sets use it up to kTableEvaluatorLimit. Stateful and
/// single-threaded, like DeltaEvaluatorT.
class TableEvaluator {
 public:
  /// `state`, when given, must be filled and serve g (see above).
  TableEvaluator(const Digraph& g, Vertex player, CostVersion version,
                 const StateTable* state = nullptr);

  [[nodiscard]] Vertex player() const noexcept { return player_; }
  [[nodiscard]] CostVersion version() const noexcept { return version_; }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t current_cost() const noexcept { return current_cost_; }
  [[nodiscard]] const std::vector<Vertex>& current_strategy() const noexcept {
    return current_strategy_;
  }
  [[nodiscard]] bool has_head(Vertex v) const {
    BBNG_ASSERT(v < n_);
    return is_head_[v] != 0;
  }
  /// In(player), ascending: the seeds every strategy gets for free.
  [[nodiscard]] const std::vector<Vertex>& in_neighbors() const noexcept {
    return in_neighbors_;
  }

  /// Add head t (must not be present, ≠ player): one O(n) cover pass.
  void add_head(Vertex t);
  /// Remove head h (must be present): O(1) for the most recent head, else
  /// the covers above it are rebuilt.
  void remove_head(Vertex h);

  /// Cost of the present head set. O(1) (cached per cover level).
  [[nodiscard]] std::uint64_t cost() {
    ++evaluations_;
    return level_cost_.back();
  }
  /// Cost of heads ∪ {t} without committing. One O(n) pass.
  [[nodiscard]] std::uint64_t cost_with_head(Vertex t);
  /// costs[i] = cost_with_head(heads[i]) for every i, in one kernel call.
  /// A non-empty `fold` (size n) also takes every probed row in the same
  /// pass, fold[v] = min(fold[v], row_t[v]), so a caller building a
  /// min-over-candidates cover (exact_bb's seed-distance bound) reads each
  /// row once. Counts one evaluation per head.
  void cost_with_heads(std::span<const Vertex> heads, std::span<std::uint64_t> costs,
                       std::span<std::uint32_t> fold = {});
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }
  /// No oracle runs behind the table, so no BFS is ever "avoided": always 0.
  [[nodiscard]] std::uint64_t bfs_avoided() const noexcept { return 0; }

  // ---- table access for branch-and-bound bounds ----
  /// Head-cover row of t: 1 + d_base(t, ·), Cinf across components.
  [[nodiscard]] std::span<const std::uint32_t> row(Vertex t) const {
    BBNG_ASSERT(t < n_ && t != player_);
    return {table_.data() + std::size_t{t} * n_, n_};
  }
  /// The in-neighbour cover (level 0): what every strategy gets for free.
  [[nodiscard]] std::span<const std::uint32_t> in_cover() const { return {covers_.data(), n_}; }
  /// The cover of the present head set (top level).
  [[nodiscard]] std::span<const std::uint32_t> cover() const {
    return {covers_.data() + covers_.size() - n_, n_};
  }
  /// Base components the present cover leaves unseeded (MAX's κ − 1 when
  /// positive); each further head seeds at most one of them.
  [[nodiscard]] std::uint32_t unseeded_components() const {
    return count_unseeded(cover().data());
  }
  /// The k-center packing test (ρ ≥ 1): scanning vertices in id order, pick
  /// each v with cover[v] > ρ whose row_p[v] ≥ 2ρ, i.e. d(p, v) ≥ 2ρ − 1, for
  /// every p picked before it. True once r + 1 are picked: a head within ρ
  /// of two picked vertices would put them ≤ 2ρ − 2 apart, so any r more
  /// heads leave a cover entry above ρ, and a MAX cost > ρ.
  [[nodiscard]] bool packs(std::uint64_t rho, std::uint32_t r);

 private:
  /// Write cover level `level` = level − 1 ∧ row_t and cache its cost.
  void fill_level(std::size_t level, Vertex t);
  /// Cost of the in-neighbour cover alone (level 0).
  [[nodiscard]] std::uint64_t in_cover_cost() const;
  /// Base components whose representative min(cover, row) leaves at Cinf:
  /// the one unseeded test behind every MAX cost. A null `row` counts the
  /// cover alone.
  [[nodiscard]] std::uint32_t count_unseeded(const std::uint32_t* cover,
                                             const std::uint32_t* row = nullptr) const;
  /// One pass over min(cover, row): the cost of that cover, folding row
  /// into `fold` when kFold. `fold` must not alias `cover` or `row`.
  template <bool kFold>
  [[nodiscard]] std::uint64_t score(const std::uint32_t* cover, const std::uint32_t* row,
                                    std::uint32_t* fold) const;
  /// costs[i] = score of the present cover with heads[i]'s row, every row
  /// folded into `fold` when it is non-null; batched kernel calls.
  /// Unchecked: cost_with_heads validates the heads.
  void score_batch(std::span<const Vertex> heads, std::uint64_t* costs, std::uint32_t* fold) const;

  Vertex player_;
  CostVersion version_;
  std::uint32_t n_;
  std::uint32_t inf_;                   ///< Cinf = n²
  std::vector<std::uint32_t> table_;    ///< n×n head covers, row-major by head
  std::vector<Vertex> in_neighbors_;    ///< In(player), ascending, as the fill collects it
  std::vector<Vertex> reps_;            ///< one vertex per base component
  std::vector<std::uint32_t> covers_;   ///< (heads + 1) × n cover stack
  std::vector<std::uint64_t> level_cost_;  ///< cost of each cover level
  std::vector<Vertex> heads_;           ///< present heads, insertion order
  std::vector<std::uint8_t> is_head_;
  std::vector<Vertex> current_strategy_;
  std::uint64_t current_cost_ = 0;
  std::uint64_t evaluations_ = 0;
  std::vector<const std::uint32_t*> packed_;  ///< packs() scratch: picked rows
};

/// Largest n scored on TableEvaluator (exact solvers, move sets): its O(n²)
/// table and O(n·m) fill stop paying off (and fitting in memory) beyond this.
inline constexpr std::uint32_t kTableEvaluatorLimit = 2048;

/// The one place an exact solver (exact_bb, BestResponseSolver::exact) picks
/// the evaluator that scores `player`, and the one with_move_evaluator defers
/// to below the limit: TableEvaluator for n ≤ kTableEvaluatorLimit,
/// CsrDeltaEvaluator above. Builds it with the incumbent strategy as its head
/// set and returns fn(eval). Both score bit-identically; bfs_avoided() is 0 on
/// the table. A non-null `state` (a StateTable serving g) is requested for
/// the table's fill.
template <class Fn>
auto with_table_evaluator(const Digraph& g, Vertex player, CostVersion version, StateTable* state,
                          Fn&& fn) {
  if (g.num_vertices() <= kTableEvaluatorLimit) {
    TableEvaluator eval(g, player, version, state != nullptr ? state->request() : nullptr);
    return fn(eval);
  }
  CsrDeltaEvaluator eval(g, player, version);
  return fn(eval);
}

/// The naive StrategyEvaluator behind the DeltaEvaluatorT head-set
/// interface: every cost() and cost_with_head() is one multi-source BFS over
/// the present head set. It is the reference the delta and table evaluators
/// are checked against. Construction loads the incumbent strategy as the head
/// set, like DeltaEvaluatorT. Stateful and single-threaded (owns one Scratch).
class NaiveEvaluator {
 public:
  NaiveEvaluator(const Digraph& g, Vertex player, CostVersion version)
      : eval_(g, player, version), scratch_(g.num_vertices()), heads_(eval_.current_strategy()) {}

  [[nodiscard]] Vertex player() const noexcept { return eval_.player(); }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return eval_.num_vertices(); }
  [[nodiscard]] std::uint64_t current_cost() const noexcept { return eval_.current_cost(); }
  [[nodiscard]] const std::vector<Vertex>& current_strategy() const noexcept {
    return eval_.current_strategy();
  }
  /// O(#heads), like add_head and remove_head: strategies are small.
  [[nodiscard]] bool has_head(Vertex v) const {
    return std::find(heads_.begin(), heads_.end(), v) != heads_.end();
  }

  void add_head(Vertex t) {
    BBNG_REQUIRE_MSG(!has_head(t), "head already present");
    heads_.push_back(t);  // evaluate() checks t against the player and n
  }
  void remove_head(Vertex h) {
    const auto it = std::find(heads_.begin(), heads_.end(), h);
    BBNG_REQUIRE_MSG(it != heads_.end(), "head not present");
    heads_.erase(it);
  }

  [[nodiscard]] std::uint64_t cost() { return eval_.evaluate(heads_, scratch_); }
  [[nodiscard]] std::uint64_t cost_with_head(Vertex t) {
    add_head(t);
    const std::uint64_t probed = cost();
    heads_.pop_back();
    return probed;
  }
  /// Every query is a full BFS: always 0.
  [[nodiscard]] std::uint64_t bfs_avoided() const noexcept { return 0; }

 private:
  StrategyEvaluator eval_;
  StrategyEvaluator::Scratch scratch_;
  std::vector<Vertex> heads_;  ///< present head set, in insertion order
};

/// costs[i] = cost of heads[i] added to eval's head set, without committing:
/// one batched kernel call on TableEvaluator, one cost_with_head per head on
/// the other evaluators. Every head must be absent from the head set.
template <class Eval>
void cost_with_heads(Eval& eval, std::span<const Vertex> heads, std::span<std::uint64_t> costs) {
  if constexpr (std::is_same_v<Eval, TableEvaluator>) {
    eval.cost_with_heads(heads, costs);
  } else {
    BBNG_REQUIRE(costs.size() == heads.size());
    for (std::size_t i = 0; i < heads.size(); ++i) costs[i] = eval.cost_with_head(heads[i]);
  }
}

/// The one place a move set picks the evaluator that scores `player`:
/// TableEvaluator for n ≤ kTableEvaluatorLimit, whatever the knobs say. Above
/// it NaiveEvaluator when `!incremental`, else the delta evaluator on `core`
/// (CSR or vector adjacency). Builds it with the incumbent strategy as its
/// head set and returns fn(eval). Every choice scores bit-identically, so
/// `incremental` and `core` are performance knobs only; bfs_avoided() is the
/// one observable that differs (0 except on a delta evaluator).
template <class Fn>
auto with_move_evaluator(const Digraph& g, Vertex player, CostVersion version, bool incremental,
                         GraphCore core, Fn&& fn) {
  if (g.num_vertices() <= kTableEvaluatorLimit) {
    return with_table_evaluator(g, player, version, nullptr, fn);
  }
  if (!incremental) {
    NaiveEvaluator eval(g, player, version);
    return fn(eval);
  }
  if (core == GraphCore::kCsr) {
    CsrDeltaEvaluator eval(g, player, version);
    return fn(eval);
  }
  DeltaEvaluator eval(g, player, version);
  return fn(eval);
}

/// An improving single-head swap: position `index` of the strategy gets
/// `target`, and the strategy then costs `cost`.
struct FirstSwap {
  std::size_t index = 0;
  Vertex target = 0;
  std::uint64_t cost = 0;
};

/// The one first-improving swap pass, shared by the swap scan
/// (scan_first_improving_swap_with) and the swap descent (swap_improve_with).
/// `eval` holds the heads of `strategy`. For each position i in order: drop
/// head i, probe every target not in `used` in vertex order, and stop at the
/// first probe cheaper than `cost`, leaving head i dropped and the target
/// unadded; otherwise restore head i.
/// Returns nullopt, with every head restored, when no swap improves. Each
/// probe adds one to `probes`.
template <class Eval>
[[nodiscard]] std::optional<FirstSwap> first_improving_swap(Eval& eval,
                                                            const std::vector<Vertex>& strategy,
                                                            const std::vector<bool>& used,
                                                            std::uint64_t cost,
                                                            std::uint64_t& probes) {
  const std::uint32_t n = eval.num_vertices();
  for (std::size_t i = 0; i < strategy.size(); ++i) {
    eval.remove_head(strategy[i]);
    for (Vertex t = 0; t < n; ++t) {
      if (used[t]) continue;
      const std::uint64_t trial_cost = eval.cost_with_head(t);
      ++probes;
      if (trial_cost < cost) return FirstSwap{i, t, trial_cost};
    }
    eval.add_head(strategy[i]);
  }
  return std::nullopt;
}

}  // namespace bbng
