// Unit tests for the BFS primitives and the reusable BfsRunner scratch.
#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace bbng {
namespace {

TEST(Bfs, PathDistances) {
  const UGraph g = path_ugraph(5);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, CycleDistances) {
  const UGraph g = cycle_ugraph(6);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0U);
  EXPECT_EQ(d[1], 1U);
  EXPECT_EQ(d[2], 2U);
  EXPECT_EQ(d[3], 3U);
  EXPECT_EQ(d[4], 2U);
  EXPECT_EQ(d[5], 1U);
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  UGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1U);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Bfs, RunnerStatsOnPath) {
  const UGraph g = path_ugraph(4);
  BfsRunner runner(4);
  runner.run(g, 0);
  EXPECT_EQ(runner.reached(), 4U);
  EXPECT_EQ(runner.max_dist(), 3U);
  EXPECT_EQ(runner.sum_dist(), 0U + 1 + 2 + 3);
}

TEST(Bfs, RunnerStatsDisconnected) {
  UGraph g(5);
  g.add_edge(0, 1);
  BfsRunner runner(5);
  runner.run(g, 0);
  EXPECT_EQ(runner.reached(), 2U);
  EXPECT_EQ(runner.max_dist(), 1U);
  EXPECT_EQ(runner.sum_dist(), 1U);
}

TEST(Bfs, RunnerIsReusable) {
  const UGraph g = path_ugraph(6);
  BfsRunner runner(6);
  runner.run(g, 0);
  EXPECT_EQ(runner.max_dist(), 5U);
  runner.run(g, 3);
  EXPECT_EQ(runner.max_dist(), 3U);
  EXPECT_EQ(runner.dist(0), 3U);
  EXPECT_EQ(runner.dist(5), 2U);
}

TEST(Bfs, MultiSourceTakesMinimum) {
  const UGraph g = path_ugraph(9);
  const Vertex sources[] = {0, 8};
  const auto d = bfs_distances_multi(g, sources);
  EXPECT_EQ(d[0], 0U);
  EXPECT_EQ(d[4], 4U);
  EXPECT_EQ(d[6], 2U);
  EXPECT_EQ(d[8], 0U);
}

TEST(Bfs, MultiSourceDuplicatesHarmless) {
  const UGraph g = path_ugraph(4);
  const Vertex sources[] = {1, 1, 1};
  const auto d = bfs_distances_multi(g, sources);
  EXPECT_EQ(d[1], 0U);
  EXPECT_EQ(d[3], 2U);
}

TEST(Bfs, GridDistancesAreManhattanNearSource) {
  const UGraph g = grid_graph(4, 4);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[5], 2U);   // (1,1)
  EXPECT_EQ(d[15], 6U);  // (3,3)
}

}  // namespace
}  // namespace bbng
