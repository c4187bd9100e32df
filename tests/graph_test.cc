#include "graph/graph.h"

#include <gtest/gtest.h>

#include <tuple>

#include "geom/rng.h"
#include "graph/generators.h"
#include "graph/independent_set.h"

namespace decaylib::graph {
namespace {

TEST(GraphTest, AddEdgeIsSymmetricAndIdempotent) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // duplicate, ignored
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 0);
}

TEST(GraphTest, NeighborsListed) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 3);
  const auto nb = g.Neighbors(0);
  EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()), (std::vector<int>{1, 3}));
}

TEST(GraphTest, IsIndependentSet) {
  Graph g = Path(4);  // 0-1-2-3
  const std::vector<int> good{0, 2};
  const std::vector<int> bad{1, 2};
  EXPECT_TRUE(g.IsIndependentSet(good));
  EXPECT_FALSE(g.IsIndependentSet(bad));
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = Cycle(5);
  const std::vector<int> vs{0, 1, 3};
  const Graph sub = g.InducedSubgraph(vs);
  EXPECT_EQ(sub.size(), 3);
  EXPECT_TRUE(sub.HasEdge(0, 1));   // 0-1 in cycle
  EXPECT_FALSE(sub.HasEdge(0, 2));  // 0-3 not adjacent in C5
}

TEST(GraphTest, Complement) {
  Graph g = Path(3);
  const Graph c = g.Complement();
  EXPECT_TRUE(c.HasEdge(0, 2));
  EXPECT_FALSE(c.HasEdge(0, 1));
  EXPECT_EQ(c.NumEdges(), 1);
}

TEST(GeneratorsTest, PathCycleCompleteStarShapes) {
  EXPECT_EQ(Path(5).NumEdges(), 4);
  EXPECT_EQ(Cycle(5).NumEdges(), 5);
  EXPECT_EQ(Complete(5).NumEdges(), 10);
  EXPECT_EQ(Star(5).NumEdges(), 4);
  EXPECT_EQ(CliqueUnion(3, 4).NumEdges(), 3 * 6);
}

TEST(GeneratorsTest, GnpDensityTracksP) {
  geom::Rng rng(1);
  const Graph g = RandomGnp(60, 0.25, rng);
  const int possible = 60 * 59 / 2;
  const double density = static_cast<double>(g.NumEdges()) / possible;
  EXPECT_NEAR(density, 0.25, 0.05);
}

TEST(GeneratorsTest, UnitDiskEdges) {
  const std::vector<geom::Vec2> pts{{0, 0}, {1, 0}, {3, 0}};
  const Graph g = UnitDisk(pts, 1.5);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(MaxIndependentSetTest, KnownOptima) {
  EXPECT_EQ(MaxIndependentSet(Path(7)).size(), 4u);      // ceil(7/2)
  EXPECT_EQ(MaxIndependentSet(Cycle(7)).size(), 3u);     // floor(7/2)
  EXPECT_EQ(MaxIndependentSet(Complete(6)).size(), 1u);
  EXPECT_EQ(MaxIndependentSet(Star(6)).size(), 5u);      // the leaves
  EXPECT_EQ(MaxIndependentSet(CliqueUnion(4, 3)).size(), 4u);
}

TEST(MaxIndependentSetTest, EmptyGraphTakesAll) {
  const Graph g(5);
  EXPECT_EQ(MaxIndependentSet(g).size(), 5u);
}

TEST(MaxIndependentSetTest, ResultIsIndependent) {
  geom::Rng rng(2);
  const Graph g = RandomGnp(20, 0.3, rng);
  const auto mis = MaxIndependentSet(g);
  EXPECT_TRUE(g.IsIndependentSet(mis));
}

class GreedyVsExact : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(GreedyVsExact, GreedyNeverBeatsExactAndBothIndependent) {
  const auto [n, p] = GetParam();
  geom::Rng rng(static_cast<std::uint64_t>(n * 100 + p * 1000));
  const Graph g = RandomGnp(n, p, rng);
  const auto exact = MaxIndependentSet(g);
  const auto greedy = GreedyIndependentSet(g);
  EXPECT_TRUE(g.IsIndependentSet(exact));
  EXPECT_TRUE(g.IsIndependentSet(greedy));
  EXPECT_LE(greedy.size(), exact.size());
  EXPECT_GE(greedy.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyVsExact,
    ::testing::Combine(::testing::Values(8, 14, 20),
                       ::testing::Values(0.1, 0.3, 0.6)));

}  // namespace
}  // namespace decaylib::graph
