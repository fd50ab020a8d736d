#include "game/strategy_eval.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "game/cost.hpp"
#include "graph/connectivity.hpp"
#include "graph/multi_bfs.hpp"

namespace bbng {

void add_stripped_underlying(const Digraph& g, Vertex player, UGraph& base) {
  BBNG_REQUIRE(player < g.num_vertices());
  BBNG_REQUIRE(base.num_vertices() >= g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Vertex v : g.out_neighbors(u)) {
      if (u == player || v == player) continue;
      if (!base.has_edge(u, v)) base.add_edge(u, v);
    }
  }
}

UGraph best_response_base(const Digraph& g, Vertex player) {
  UGraph base(g.num_vertices());
  add_stripped_underlying(g, player, base);
  return base;
}

std::vector<Vertex> player_in_neighbors(const Digraph& g, Vertex player) {
  BBNG_REQUIRE(player < g.num_vertices());
  std::vector<Vertex> in;
  for (Vertex w = 0; w < g.num_vertices(); ++w) {
    if (w != player && g.has_arc(w, player)) in.push_back(w);
  }
  return in;
}

StrategyEvaluator::StrategyEvaluator(const Digraph& g, Vertex player, CostVersion version)
    : player_(player), version_(version), n_(g.num_vertices()), base_(g.num_vertices()) {
  BBNG_REQUIRE(player < n_);
  add_stripped_underlying(g, player_, base_);
  in_neighbors_ = player_in_neighbors(g, player_);

  const Components comps = connected_components(base_);
  comp_ = comps.id;
  BBNG_ASSERT(comps.count >= 1);
  base_components_ = comps.count - 1;  // player_ is an isolated singleton in base_

  current_strategy_.assign(g.out_neighbors(player_).begin(), g.out_neighbors(player_).end());
  Scratch scratch(n_);
  current_cost_ = evaluate(current_strategy_, scratch);
}

std::uint64_t StrategyEvaluator::evaluate(std::span<const Vertex> strategy,
                                          Scratch& scratch) const {
  const std::uint64_t inf = cinf(n_);

  // Seeds = strategy heads ∪ in-neighbours; all at distance 1 from player.
  scratch.seeds.clear();
  for (const Vertex s : strategy) {
    BBNG_REQUIRE_MSG(s != player_, "strategy head equals the player");
    BBNG_REQUIRE(s < n_);
    scratch.seeds.push_back(s);
  }
  scratch.seeds.insert(scratch.seeds.end(), in_neighbors_.begin(), in_neighbors_.end());

  if (scratch.seeds.empty()) {
    // Player is completely isolated: κ = base components + its own.
    if (version_ == CostVersion::Sum) return static_cast<std::uint64_t>(n_ - 1) * inf;
    const std::uint64_t kappa = base_components_ + 1;
    return n_ == 1 ? 0 : inf + (kappa - 1) * inf;
  }

  // Count how many base components the seeds touch (epoch-stamped marks
  // avoid clearing the array on every evaluation).
  ++scratch.epoch;
  std::uint32_t seeded_components = 0;
  for (const Vertex s : scratch.seeds) {
    const std::uint32_t c = comp_[s];
    if (scratch.comp_hit[c] != scratch.epoch) {
      scratch.comp_hit[c] = scratch.epoch;
      ++seeded_components;
    }
  }
  const std::uint32_t unseeded = base_components_ - seeded_components;

  scratch.runner.run_multi(base_, scratch.seeds);

  if (version_ == CostVersion::Sum) {
    // dist(player, v) = dist_base(seeds, v) + 1 for every reached v (the
    // player itself is isolated in base_, hence never counted).
    const std::uint64_t reached = scratch.runner.reached();
    const std::uint64_t unreached = n_ - 1 - reached;
    return scratch.runner.sum_dist() + reached + unreached * inf;
  }

  if (unseeded == 0) {
    return scratch.runner.max_dist() + 1;  // local diameter; κ == 1
  }
  const std::uint64_t kappa = 1 + unseeded;
  return inf + (kappa - 1) * inf;
}

// ---------------------------------------------------------------------------
// DeltaEvaluatorT — anchor both graph-core instantiations in this TU.

template class DeltaEvaluatorT<UGraph>;
template class DeltaEvaluatorT<CsrUGraph>;

// ---------------------------------------------------------------------------
// TableEvaluator

// The probe kernels below are the search's hot loop. Each is built twice on
// x86-64 ELF targets — AVX2 (one vpminud per 8 entries; SSE2 has no unsigned
// 32-bit min) and the baseline — and the loader picks one per host. They do
// only integer min and add, so both clones return the same bits.
// ThreadSanitizer builds get the baseline only: the loader runs the clones'
// ifunc resolvers before the TSan runtime is up, and the instrumented
// resolvers crash there.
#if defined(__SANITIZE_THREAD__)
#define BBNG_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BBNG_TSAN_BUILD 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(BBNG_TSAN_BUILD)
#define BBNG_PROBE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define BBNG_PROBE_CLONES
#endif

namespace {

/// Σ_v min(cover[v], row[v]) accumulated in Acc (kMax: max_v instead),
/// folding row into fold (fold[v] = min(fold[v], row[v])) when kFold. The
/// one kernel body, inlined into each clone below.
template <class Acc, bool kMax, bool kFold>
[[gnu::always_inline]] inline Acc min_row(const std::uint32_t* __restrict cover,
                                          const std::uint32_t* __restrict row,
                                          std::uint32_t* __restrict fold, std::uint32_t n) {
  Acc acc = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t d = std::min(cover[v], row[v]);
    if constexpr (kMax) {
      acc = std::max(acc, d);
    } else {
      acc += d;
    }
    if constexpr (kFold) fold[v] = std::min(fold[v], row[v]);
  }
  return acc;
}

// One row per call: a single probe, and add_head's cover pass. SUM
// accumulates in 64 bits (an n ≤ 65535 SUM cost exceeds 2³² once the
// player is cut off from enough vertices).
BBNG_PROBE_CLONES std::uint64_t sum_min(const std::uint32_t* cover, const std::uint32_t* row,
                                        std::uint32_t n) {
  return min_row<std::uint64_t, false, false>(cover, row, nullptr, n);
}
BBNG_PROBE_CLONES std::uint64_t sum_min_fold(const std::uint32_t* cover, const std::uint32_t* row,
                                             std::uint32_t* fold, std::uint32_t n) {
  return min_row<std::uint64_t, false, true>(cover, row, fold, n);
}
BBNG_PROBE_CLONES std::uint32_t max_min(const std::uint32_t* cover, const std::uint32_t* row,
                                        std::uint32_t n) {
  return min_row<std::uint32_t, true, false>(cover, row, nullptr, n);
}
BBNG_PROBE_CLONES std::uint32_t max_min_fold(const std::uint32_t* cover, const std::uint32_t* row,
                                             std::uint32_t* fold, std::uint32_t n) {
  return min_row<std::uint32_t, true, true>(cover, row, fold, n);
}

/// fold[v] = min(fold[v], row[v]).
BBNG_PROBE_CLONES void fold_min(const std::uint32_t* __restrict row,
                                std::uint32_t* __restrict fold, std::uint32_t n) {
  for (std::uint32_t v = 0; v < n; ++v) fold[v] = std::min(fold[v], row[v]);
}

// A batch of rows per call: out[i] scores the row of heads[i]. A per-row
// call costs more than the row itself at small n, so a node's probes share
// one. SUM accumulates in 64 bits, as one row does.
#define BBNG_MIN_ROWS_KERNEL(name, Acc, kMax, kFold)                                          \
  BBNG_PROBE_CLONES void name(const std::uint32_t* __restrict cover,                          \
                              const std::uint32_t* __restrict table, std::uint32_t n,         \
                              const Vertex* __restrict heads, std::size_t count,              \
                              std::uint64_t* __restrict out, std::uint32_t* __restrict fold) { \
    for (std::size_t i = 0; i < count; ++i) {                                                 \
      out[i] = min_row<Acc, kMax, kFold>(cover, table + std::size_t{heads[i]} * n, fold, n);  \
    }                                                                                         \
  }
BBNG_MIN_ROWS_KERNEL(sum_min_rows, std::uint64_t, false, false)
BBNG_MIN_ROWS_KERNEL(sum_min_rows_fold, std::uint64_t, false, true)
BBNG_MIN_ROWS_KERNEL(max_min_rows, std::uint32_t, true, false)
BBNG_MIN_ROWS_KERNEL(max_min_rows_fold, std::uint32_t, true, true)
#undef BBNG_MIN_ROWS_KERNEL

/// One word-parallel BFS from s over the adjacency words `adj` (n ≤ 64):
/// row[v] = 1 + d(s, v) for every v reached. One bit loop per level writes
/// each frontier vertex's distance and ORs in its word; the next frontier is
/// that OR minus what is seen. With `affected`, a vertex of the next frontier
/// that only one frontier vertex reaches (not in `twice`) has that vertex as
/// its only previous-level neighbour, which gets bit s. Returns the reached
/// set.
template <bool kAffected>
std::uint64_t word_bfs(const std::uint64_t* adj, Vertex s, std::uint32_t* row,
                       std::uint64_t* affected) {
  std::uint64_t seen = std::uint64_t{1} << s;
  std::uint64_t frontier = seen;
  for (std::uint32_t dist = 1; frontier != 0; ++dist) {
    std::uint64_t next = 0;
    std::uint64_t twice = 0;
    for (std::uint64_t f = frontier; f != 0; f &= f - 1) {
      const int v = std::countr_zero(f);
      row[v] = dist;
      if constexpr (kAffected) twice |= next & adj[v];
      next |= adj[v];
    }
    const std::uint64_t level = frontier;
    frontier = next & ~seen;
    seen |= frontier;
    if constexpr (kAffected) {
      for (std::uint64_t once = frontier & ~twice; once != 0; once &= once - 1) {
        affected[std::countr_zero(adj[std::countr_zero(once)] & level)] |= std::uint64_t{1} << s;
      }
    }
  }
  return seen;
}

/// Fill the table rows of every vertex but `player` for n ≤ 64 in one row
/// loop over the adjacency words of the stripped base: a row `state` shows
/// unchanged by deleting the player is copied from it with the player's
/// column set to `inf`, and every other row is one word_bfs. A null `state`
/// BFSes every row. Returns the player's in-neighbours, collected on the
/// way.
std::vector<Vertex> fill_rows_by_words(const Digraph& g, Vertex player, const StateTable* state,
                                       std::uint32_t inf, std::uint32_t* table) {
  const std::uint32_t n = g.num_vertices();
  BBNG_ASSERT(n <= 64);
  std::array<std::uint64_t, 64> adj{};
  std::vector<Vertex> in;
  for (Vertex u = 0; u < n; ++u) {
    if (u == player) continue;
    for (const Vertex v : g.out_neighbors(u)) {
      if (v == player) {
        in.push_back(u);
        continue;
      }
      adj[u] |= std::uint64_t{1} << v;
      adj[v] |= std::uint64_t{1} << u;
    }
  }
  const std::uint64_t rebuilt = state != nullptr ? state->affected(player) : ~std::uint64_t{0};
  for (Vertex s = 0; s < n; ++s) {
    if (s == player) continue;
    std::uint32_t* row = table + std::size_t{s} * n;
    if ((rebuilt >> s & 1) != 0) {
      word_bfs<false>(adj.data(), s, row, nullptr);
    } else {
      std::copy_n(state->row(s).data(), n, row);
      row[player] = inf;
    }
  }
  return in;
}

/// fill_rows_by_words for any n: ⌈(n−1)/64⌉ packed sweeps of the 64-lane
/// kernel over underlying_csr(CsrGraph(g), player), each writing its lane's
/// row as vertices settle.
std::vector<Vertex> fill_rows_by_lanes(const Digraph& g, Vertex player, std::uint32_t* table) {
  const std::uint32_t n = g.num_vertices();
  const CsrGraph csr(g);
  const CsrUGraph base = underlying_csr(csr, /*skip=*/player);
  std::vector<Vertex> sources;
  sources.reserve(n);
  for (Vertex s = 0; s < n; ++s) {
    if (s != player) sources.push_back(s);
  }
  CsrMultiBfs lanes(base);
  std::array<std::uint32_t*, CsrMultiBfs::kLanes> rows{};
  for (std::size_t first = 0; first < sources.size(); first += CsrMultiBfs::kLanes) {
    const std::size_t count = std::min<std::size_t>(CsrMultiBfs::kLanes, sources.size() - first);
    for (std::size_t i = 0; i < count; ++i) rows[i] = table + std::size_t{sources[first + i]} * n;
    lanes.sweep(std::span<const Vertex>(sources).subspan(first, count),
                [&rows](std::uint32_t lane, Vertex v, std::uint32_t level) {
                  rows[lane][v] = level + 1;
                });
  }
  const std::span<const Vertex> in = csr.in_neighbors(player);
  return {in.begin(), in.end()};
}

}  // namespace

// ---------------------------------------------------------------------------
// StateTable

const StateTable* StateTable::request() {
  if (n_ > 64) return nullptr;
  if (rows_.empty() && ++requests_ >= 2) fill();
  return rows_.empty() ? nullptr : this;
}

void StateTable::fill() {
  const std::uint32_t n = n_;
  std::array<std::uint64_t, 64> adj{};
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : g_->out_neighbors(u)) {
      adj[u] |= std::uint64_t{1} << v;
      adj[v] |= std::uint64_t{1} << u;
    }
  }
  rows_.assign(std::size_t{n} * n, static_cast<std::uint32_t>(cinf(n)));
  affected_.assign(n, 0);
  reach_.assign(n, 0);
  std::uint64_t counted = 0;  // vertices of the components counted so far
  for (Vertex s = 0; s < n; ++s) {
    reach_[s] = word_bfs<true>(adj.data(), s, rows_.data() + std::size_t{s} * n, affected_.data());
    if ((counted >> s & 1) == 0) {
      counted |= reach_[s];
      ++components_;
    }
  }
}

std::uint64_t StateTable::vertex_cost(Vertex u, CostVersion version) const {
  const std::span<const std::uint32_t> r = row(u);
  const std::uint64_t inf = cinf(n_);
  if (version == CostVersion::Sum) {
    // Every reached v costs d = row − 1 (0 for u itself); the rest Cinf.
    std::uint64_t sum = 0;
    for (std::uint64_t f = reach_[u]; f != 0; f &= f - 1) sum += r[std::countr_zero(f)] - 1;
    return sum + (n_ - static_cast<std::uint32_t>(std::popcount(reach_[u]))) * inf;
  }
  if (components_ > 1) return components_ * inf;  // Cinf + (κ − 1)·Cinf
  return *std::max_element(r.begin(), r.end()) - 1;
}

bool StateTable::serves(const Digraph& g, Vertex player) const {
  if (&g == g_) return true;
  if (g.num_vertices() != n_ || player >= n_) return false;
  for (Vertex u = 0; u < n_; ++u) {
    if (u == player) continue;
    const std::span<const Vertex> a = g.out_neighbors(u);
    const std::span<const Vertex> b = g_->out_neighbors(u);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

std::uint64_t player_cost(const Digraph& g, Vertex player, CostVersion version,
                          StateTable* state) {
  const StateTable* table = state != nullptr ? state->request() : nullptr;
  if (table != nullptr) {
#ifndef NDEBUG
    BBNG_ASSERT(table->serves(g, player));
#endif
    // The player's own out-arcs are part of its cost, so they must agree too.
    const std::span<const Vertex> own = g.out_neighbors(player);
    const std::span<const Vertex> held = table->graph().out_neighbors(player);
    if (std::equal(own.begin(), own.end(), held.begin(), held.end())) {
      return table->vertex_cost(player, version);
    }
  }
  return vertex_cost(g, player, version);
}

// ---------------------------------------------------------------------------
// TableEvaluator

TableEvaluator::TableEvaluator(const Digraph& g, Vertex player, CostVersion version,
                               const StateTable* state)
    : player_(player), version_(version), n_(g.num_vertices()) {
  BBNG_REQUIRE(player < n_);
  BBNG_REQUIRE_MSG(cinf(n_) <= std::numeric_limits<std::uint32_t>::max(),
                   "Cinf does not fit the table's 32-bit entries");
  inf_ = static_cast<std::uint32_t>(cinf(n_));
#ifndef NDEBUG
  BBNG_ASSERT(state == nullptr || state->serves(g, player_));
#endif

  const std::uint32_t n = n_;  // a local bound: row stores may not alias it
  // Unreached entries, and the player's row (never a head), keep Cinf.
  table_.assign(std::size_t{n} * n, inf_);
  in_neighbors_ = n <= 64 ? fill_rows_by_words(g, player_, state, inf_, table_.data())
                          : fill_rows_by_lanes(g, player_, table_.data());

  // One representative per base component but the player's: the first
  // vertex whose row reaches no earlier representative.
  for (Vertex v = 0; v < n; ++v) {
    const std::uint32_t* row = table_.data() + std::size_t{v} * n;
    if (v != player_ &&
        std::none_of(reps_.begin(), reps_.end(), [&](Vertex r) { return row[r] != inf_; })) {
      reps_.push_back(v);
    }
  }

  covers_.assign(n, inf_);
  covers_[player_] = 0;
  std::uint32_t* in_cover = covers_.data();
  for (const Vertex w : in_neighbors_) {
    const std::uint32_t* row = table_.data() + std::size_t{w} * n;
    for (Vertex v = 0; v < n; ++v) in_cover[v] = std::min(in_cover[v], row[v]);
  }
  level_cost_.push_back(in_cover_cost());

  is_head_.assign(n_, 0);
  current_strategy_.assign(g.out_neighbors(player_).begin(), g.out_neighbors(player_).end());
  for (const Vertex h : current_strategy_) add_head(h);
  current_cost_ = cost();
  evaluations_ = 0;  // construction does not count as a query
}

std::uint64_t TableEvaluator::in_cover_cost() const {
  const std::span<const std::uint32_t> cover = in_cover();
  if (version_ == CostVersion::Sum) {
    std::uint64_t sum = 0;
    for (const std::uint32_t d : cover) sum += d;
    return sum;
  }
  const std::uint64_t unseeded = count_unseeded(cover.data());
  if (unseeded > 0) return std::uint64_t{inf_} * (1 + unseeded);
  return *std::max_element(cover.begin(), cover.end());
}

std::uint32_t TableEvaluator::count_unseeded(const std::uint32_t* cover,
                                             const std::uint32_t* row) const {
  const std::uint32_t* seed = row != nullptr ? row : cover;
  std::uint32_t unseeded = 0;
  for (const Vertex r : reps_) unseeded += std::min(cover[r], seed[r]) == inf_ ? 1 : 0;
  return unseeded;
}

template <bool kFold>
std::uint64_t TableEvaluator::score(const std::uint32_t* cover, const std::uint32_t* row,
                                    std::uint32_t* fold) const {
  if (version_ == CostVersion::Sum) {
    if constexpr (kFold) return sum_min_fold(cover, row, fold, n_);
    return sum_min(cover, row, n_);
  }
  // MAX: κ − 1 = base components whose representative no seed reaches.
  const std::uint64_t unseeded = count_unseeded(cover, row);
  if (unseeded > 0) {
    if constexpr (kFold) fold_min(row, fold, n_);
    return std::uint64_t{inf_} * (1 + unseeded);
  }
  if constexpr (kFold) return max_min_fold(cover, row, fold, n_);
  return max_min(cover, row, n_);  // local diameter; κ == 1
}

void TableEvaluator::score_batch(std::span<const Vertex> heads, std::uint64_t* costs,
                                 std::uint32_t* fold) const {
  const std::uint32_t* cover = this->cover().data();
  const std::uint32_t* table = table_.data();
  const bool folds = fold != nullptr;
  if (version_ == CostVersion::Sum) {
    (folds ? sum_min_rows_fold : sum_min_rows)(cover, table, n_, heads.data(), heads.size(), costs,
                                               fold);
    return;
  }
  // MAX: while the cover reaches every base component, every head's probe
  // seeds them all (κ == 1, scored by the local diameter), so the batch goes
  // to the kernel. Otherwise most heads leave a component unseeded, and each
  // head is scored alone on score()'s κ path.
  if (count_unseeded(cover) == 0) {
    (folds ? max_min_rows_fold : max_min_rows)(cover, table, n_, heads.data(), heads.size(), costs,
                                               fold);
    return;
  }
  for (std::size_t i = 0; i < heads.size(); ++i) {
    const std::uint32_t* row = table + std::size_t{heads[i]} * n_;
    costs[i] = folds ? score<true>(cover, row, fold) : score<false>(cover, row, nullptr);
  }
}

void TableEvaluator::fill_level(std::size_t level, Vertex t) {
  const std::uint32_t* prev = covers_.data() + (level - 1) * n_;
  std::uint32_t* next = covers_.data() + level * n_;
  // next = prev ∧ row_t, folded in the same pass that scores the level.
  std::copy_n(prev, n_, next);
  level_cost_[level] = score<true>(prev, table_.data() + std::size_t{t} * n_, next);
}

void TableEvaluator::add_head(Vertex t) {
  BBNG_REQUIRE_MSG(t != player_, "strategy head equals the player");
  BBNG_REQUIRE(t < n_);
  BBNG_REQUIRE_MSG(is_head_[t] == 0, "head already present");
  is_head_[t] = 1;
  heads_.push_back(t);
  covers_.resize(covers_.size() + n_);
  level_cost_.push_back(0);
  fill_level(heads_.size(), t);
}

void TableEvaluator::remove_head(Vertex h) {
  BBNG_REQUIRE(h < n_);
  BBNG_REQUIRE_MSG(is_head_[h] != 0, "head not present");
  is_head_[h] = 0;
  const std::size_t pos =
      static_cast<std::size_t>(std::find(heads_.rbegin(), heads_.rend(), h).base() -
                               heads_.begin()) - 1;
  heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(pos));
  // Every level above the removed head included it: rebuild them.
  for (std::size_t j = pos; j < heads_.size(); ++j) fill_level(j + 1, heads_[j]);
  covers_.resize((heads_.size() + 1) * n_);
  level_cost_.resize(heads_.size() + 1);
}

std::uint64_t TableEvaluator::cost_with_head(Vertex t) {
  BBNG_REQUIRE_MSG(t != player_, "strategy head equals the player");
  BBNG_REQUIRE(t < n_);
  BBNG_REQUIRE_MSG(is_head_[t] == 0, "head already present");
  ++evaluations_;
  return score<false>(cover().data(), table_.data() + std::size_t{t} * n_, nullptr);
}

void TableEvaluator::cost_with_heads(std::span<const Vertex> heads, std::span<std::uint64_t> costs,
                                     std::span<std::uint32_t> fold) {
  BBNG_REQUIRE(costs.size() == heads.size());
  BBNG_REQUIRE(fold.empty() || fold.size() == n_);
  for (const Vertex t : heads) {
    BBNG_REQUIRE_MSG(t != player_, "strategy head equals the player");
    BBNG_REQUIRE(t < n_);
    BBNG_REQUIRE_MSG(is_head_[t] == 0, "head already present");
  }
  evaluations_ += heads.size();
  score_batch(heads, costs.data(), fold.empty() ? nullptr : fold.data());
}

bool TableEvaluator::packs(std::uint64_t rho, std::uint32_t r) {
  BBNG_REQUIRE(rho >= 1);
  const std::uint32_t* cover = this->cover().data();  // the player's entry is 0 ≤ ρ
  packed_.clear();
  for (Vertex v = 0; v < n_; ++v) {
    if (cover[v] <= rho) continue;
    if (std::all_of(packed_.begin(), packed_.end(),
                    [&](const std::uint32_t* row) { return row[v] >= 2 * rho; })) {
      if (packed_.size() == r) return true;
      packed_.push_back(table_.data() + std::size_t{v} * n_);
    }
  }
  return false;
}

}  // namespace bbng
