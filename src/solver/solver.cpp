#include "solver/solver.hpp"

#include <algorithm>
#include <cstring>

#include "game/cost.hpp"
#include "game/strategy_eval.hpp"
#include "util/rng.hpp"

namespace bbng {

std::uint64_t trivial_cost_lower_bound(std::uint32_t n, CostVersion version) {
  if (n < 2) return 0;
  return version == CostVersion::Sum ? n - 1 : 1;
}

std::uint32_t effective_budget_cap(const Digraph& g, Vertex player, const SolverBudget& budget) {
  BBNG_REQUIRE(player < g.num_vertices());
  if (budget.budget_cap == 0) return g.out_degree(player);
  BBNG_REQUIRE(budget.budget_cap < g.num_vertices());
  return budget.budget_cap;
}

namespace {

/// `g` with `player`'s strategy deterministically resized to exactly `cap`
/// heads (cap ≤ n − 1): trimmed to its `cap` smallest heads, or padded with
/// the smallest-indexed vertices that are neither the player nor heads.
Digraph normalize_player_degree(const Digraph& g, Vertex player, std::uint32_t cap) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE(player < n && cap < n);
  std::vector<Vertex> heads(g.out_neighbors(player).begin(), g.out_neighbors(player).end());
  std::sort(heads.begin(), heads.end());
  if (heads.size() > cap) {
    heads.resize(cap);
  } else if (heads.size() < cap) {
    std::vector<std::uint8_t> used(n, 0);
    used[player] = 1;
    for (const Vertex h : heads) used[h] = 1;
    for (Vertex t = 0; t < n && heads.size() < cap; ++t) {
      if (!used[t]) heads.push_back(t);
    }
    std::sort(heads.begin(), heads.end());
  }
  Digraph normalized = g;
  normalized.set_strategy(player, heads);
  return normalized;
}

/// Bucket hash of a cache key: one multiply per 64-bit word (a short tail
/// is zero-padded), then one splitmix64 finish.
std::uint64_t key_hash(const std::string& key) {
  std::uint64_t hash = key.size();
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, key.data() + i, sizeof word);
    hash = (hash ^ word) * 0x9e3779b97f4a7c15ULL;
    hash ^= hash >> 32;
  }
  if (i < key.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, key.data() + i, key.size() - i);
    hash ^= word;
  }
  return splitmix64(hash);
}

}  // namespace

BestResponseBackend::BestResponseBackend(std::string name, Traits traits)
    : name_(std::move(name)),
      span_name_("solve:" + name_),
      traits_(traits),
      solve_hist_(obs::register_histogram("solver.solve." + name_)),
      solves_(obs::register_counter("solver." + name_ + ".solves")),
      work_{
          {"solver." + name_ + ".evaluated", &SolverResult::evaluated},
          {"solver." + name_ + ".nodes", &SolverResult::nodes_explored},
          {"solver." + name_ + ".pruned", &SolverResult::nodes_pruned},
          {"solver." + name_ + ".bfs_avoided", &SolverResult::bfs_avoided},
      } {}

SolverResult BestResponseBackend::solve(const Digraph& g, Vertex player, CostVersion version,
                                        const SolverBudget& budget, ThreadPool* pool,
                                        TranspositionCache* cache, StateTable* state) const {
  obs::ScopedTimer span(solve_hist_, span_name_.c_str());
  span.arg("player", std::uint64_t{player});
  const std::uint32_t cap = effective_budget_cap(g, player, budget);
  const auto run = [&](const Digraph& graph) {
    SolverResult result = search(graph, player, version, budget, cap, pool, state);
    result.solver = name_;
    return result;
  };
  SolverResult result;
  if (traits_.normalizes_degree && cap != g.out_degree(player)) {
    result = run(normalize_player_degree(g, player, cap));
    result.current_cost = vertex_cost(g, player, version);
  } else if (!traits_.memoizes || cache == nullptr || cap == 0) {
    // A cap-0 query has a one-point strategy space: cheaper to answer than
    // to key.
    result = run(g);
  } else {
    const std::string key = TranspositionCache::make_key(g, player, version, cap);
    const TranspositionCache::Lookup lookup = cache->find(key);
    if (const SolverResult* hit = lookup.hit) {
      result = *hit;
      // current_cost depends on the player's present strategy, which is not
      // part of the canonical key — refresh it. And a hit performs no
      // search work: zero the counters so consumers (dynamics totals,
      // nash_audit records) never report replayed effort as new.
      result.current_cost = player_cost(g, player, version, state);
      result.nodes_explored = 0;
      result.nodes_pruned = 0;
      result.evaluated = 0;
      result.bfs_avoided = 0;
      BBNG_ASSERT(g.out_degree(player) > cap || result.cost <= result.current_cost);
      return result;
    }
    result = run(g);
    cache->store(key, lookup.hash, result);
  }
  BBNG_ASSERT(g.out_degree(player) > cap || result.cost <= result.current_cost);
  BBNG_ASSERT(result.lower_bound <= result.cost);
  obs::add(solves_, 1);
  work_.publish(result);
  return result;
}

std::uint64_t BestResponseBackend::solves_so_far() const { return obs::total(solves_); }

GreedySwapDescent greedy_swap_descent(const Digraph& g, Vertex player, CostVersion version,
                                      bool incremental, GraphCore core) {
  // exact_limit 1 keeps the ladder's exact path out of reach — this helper
  // is the heuristic descent only.
  const BestResponseSolver ladder(version, /*exact_limit=*/1, incremental, core);
  GreedySwapDescent descent;
  descent.coarse = ladder.greedy(g, player);
  descent.refined = ladder.swap_improve(g, player, descent.coarse.strategy);
  return descent;
}

const obs::CounterTable<TranspositionCache::Stats>& TranspositionCache::counters() {
  static const obs::CounterTable<Stats> table{
      {"cache.transposition.hits", &Stats::hits},
      {"cache.transposition.misses", &Stats::misses},
      {"cache.transposition.flushes", &Stats::flushes},
  };
  return table;
}

std::string TranspositionCache::make_key(const Digraph& g, Vertex player, CostVersion version,
                                         std::uint32_t budget_cap) {
  const std::uint32_t n = g.num_vertices();
  BBNG_REQUIRE(player < n);
  // Sized for the worst case (every arc kept), trimmed once at the end.
  std::string key(4 * (4 + std::size_t{n} - 1 + g.num_arcs()), '\0');
  char* out = key.data();
  const auto put = [&out](std::uint32_t word) {
    std::memcpy(out, &word, sizeof word);
    out += sizeof word;
  };
  put(version == CostVersion::Sum ? 'S' : 'M');
  put(n);
  put(player);
  // The budget cap, NOT the current out-degree: the two coincide in classic
  // runs, but a churn budget change at a fixed neighbourhood re-queries the
  // same base graph under a different cap, and the certified optimum under
  // one cap is stale under another.
  put(budget_cap);
  // One pass over the out-lists: every vertex u but the player writes a
  // header word, 2·(heads other than the player) + [u → player], then those
  // heads (sorted, so the words are canonical). The headers carry the
  // in-neighbour set and delimit the lists. The player's own out-arcs are
  // deliberately excluded: they do not affect its best response, so a
  // player re-queried after changing only its own strategy hits the cache.
  for (Vertex u = 0; u < n; ++u) {
    if (u == player) continue;
    char* header = out;
    out += 4;
    std::uint32_t word = 0;
    for (const Vertex v : g.out_neighbors(u)) {
      if (v == player) {
        word |= 1;
      } else {
        put(v);
        word += 2;
      }
    }
    std::memcpy(header, &word, sizeof word);
  }
  key.resize(static_cast<std::size_t>(out - key.data()));
  return key;
}

TranspositionCache::Lookup TranspositionCache::find(const std::string& key) const {
  const std::uint64_t hash = key_hash(key);
  const auto bucket = map_.find(hash);
  if (bucket != map_.end()) {
    for (const auto& [stored_key, result] : bucket->second) {
      if (stored_key == key) {
        ++stats_.hits;
        counters().publish({.hits = 1});
        return {&result, hash};
      }
    }
  }
  ++stats_.misses;
  counters().publish({.misses = 1});
  return {nullptr, hash};
}

void TranspositionCache::store(const std::string& key, std::uint64_t hash,
                               const SolverResult& result) {
#ifndef NDEBUG
  BBNG_ASSERT(hash == key_hash(key));
#endif
  if (!result.optimal) return;
  if (entries_ >= max_entries_) {
    // Bounded memo: flush wholesale and refill. Dynamics keys change under
    // every neighbourhood move, so old entries are overwhelmingly stale —
    // keeping the recent flow cached matters more than keeping history.
    map_.clear();
    entries_ = 0;
    ++stats_.flushes;
    counters().publish({.flushes = 1});
  }
  auto& bucket = map_[hash];
  for (const auto& [stored_key, existing] : bucket) {
    if (stored_key == key) return;  // first certified answer wins (they agree)
  }
  bucket.emplace_back(key, result);
  ++entries_;
}

}  // namespace bbng
