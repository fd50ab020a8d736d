// Engine-owned BFS scratch: once warm, a reused BfsRunner, a reused MultiBfs
// engine and a DynamicBfs oracle's trial probes perform zero heap
// allocations, and a fresh MultiBfs engine's first sweep performs none.
// Proved with a counting global operator new local to this binary (tests
// link one binary per suite).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/dynamic_bfs.hpp"
#include "graph/generators.hpp"
#include "graph/multi_bfs.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counts every operator-new; frees are irrelevant to the claim.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bbng {
namespace {

TEST(BfsScratch, EnginesAreAllocationFreeOnceWarm) {
  Rng rng(4242);
  const UGraph g = connected_erdos_renyi(400, 0.02, rng);
  const CsrUGraph csr(g);
  BfsRunner runner(g.num_vertices());
  runner.run(g, 0);
  const std::uint64_t ref_sum = runner.sum_dist();

  std::vector<Vertex> sources(MultiBfs::kLanes);
  for (Vertex s = 0; s < MultiBfs::kLanes; ++s) sources[s] = s;
  std::array<BfsAggregates, MultiBfs::kLanes> lanes{};
  CsrMultiBfs engine(csr);
  engine.run_batch(sources, lanes);  // warm-up registers the bfs.multi.* counters

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  // No gtest assertions inside the counted region (their failure paths
  // allocate); fold everything into checksums and compare after.
  std::uint64_t mismatches = 0;
  std::uint64_t first_sum = 0;
  for (int sweep = 0; sweep < 20; ++sweep) {
    for (Vertex s = 0; s < 40; ++s) {
      runner.run(g, s);
      const BfsAggregates a{runner.reached(), runner.max_dist(), runner.sum_dist()};
      runner.run(csr, s);
      mismatches += (a.reached != runner.reached()) + (a.max_dist != runner.max_dist()) +
                    (a.sum_dist != runner.sum_dist());
      if (s == 0) first_sum = a.sum_dist;
    }
    engine.run_batch(sources, lanes);
    mismatches += lanes[0].sum_dist != ref_sum;
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), news_before)
      << "steady-state BfsRunner and MultiBfs queries must not allocate";
  EXPECT_EQ(mismatches, 0U);
  EXPECT_EQ(first_sum, ref_sum);
}

TEST(BfsScratch, FreshMultiBfsSweepAllocatesNothing) {
  // A 128 × 128 grid keeps each lane's frontier alive for ~250 levels, so a
  // list holding every level's frontier would outgrow its n reserve many
  // times over. The engine's lists each hold a vertex at most once, so its
  // very first sweep, with no warm-up, stays inside the construction
  // reserve.
  const UGraph g = grid_graph(128, 128);
  const CsrUGraph csr(g);
  std::vector<Vertex> sources(CsrMultiBfs::kLanes);
  for (Vertex i = 0; i < CsrMultiBfs::kLanes; ++i) sources[i] = (i * 4099) % g.num_vertices();
  std::array<BfsAggregates, CsrMultiBfs::kLanes> lanes{};
  CsrMultiBfs engine(csr);

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  // sweep(), not run_batch(): the latter's first call registers the
  // `bfs.multi.*` counters, which allocates outside the engine.
  engine.sweep(sources, [&](std::uint32_t lane, Vertex, std::uint32_t level) {
    ++lanes[lane].reached;
    lanes[lane].max_dist = level;
    lanes[lane].sum_dist += level;
  });
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), news_before)
      << "a fresh MultiBfs engine's first sweep must not allocate";

  BfsRunner runner(g.num_vertices());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    runner.run(g, sources[i]);
    EXPECT_EQ(lanes[i].reached, runner.reached()) << "lane " << i;
    EXPECT_EQ(lanes[i].max_dist, runner.max_dist()) << "lane " << i;
    EXPECT_EQ(lanes[i].sum_dist, runner.sum_dist()) << "lane " << i;
  }
}

TEST(BfsScratch, DynamicBfsProbesAreAllocationFreeOnceWarm) {
  Rng rng(4243);
  const UGraph base = connected_erdos_renyi(300, 0.03, rng);
  DynamicBfs oracle(base, /*source=*/0);

  // Warm-up: trial journals reach their steady capacity during the first
  // probe rounds.
  for (Vertex t = 1; t < 50; ++t) {
    if (base.has_edge(0, t)) continue;
    oracle.begin_trial();
    oracle.insert_edge(0, t);
    oracle.rollback_trial();
  }

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 20; ++round) {
    for (Vertex t = 1; t < 50; ++t) {
      if (base.has_edge(0, t)) continue;
      oracle.begin_trial();
      oracle.insert_edge(0, t);
      oracle.rollback_trial();
    }
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), news_before)
      << "steady-state trial probes must not allocate";
}

}  // namespace
}  // namespace bbng
