// Transitive closure G* and parallel sets Ψ_i (§4.5), as computed by
// GraphAnalysis: reachability, precedence order, parallel sets and
// ancestor/descendant counts on hand-built graphs, cross-checked against
// BFS reachability on generated ones.
#include <gtest/gtest.h>

#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

TEST(TransitiveClosure, DiamondReachability) {
  TaskGraph g(4);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  g.add_arc(1, 3);
  g.add_arc(2, 3);
  const GraphAnalysis c(g);
  EXPECT_TRUE(c.reaches(0, 3));
  EXPECT_TRUE(c.reaches(0, 1));
  EXPECT_FALSE(c.reaches(1, 2));
  EXPECT_FALSE(c.reaches(3, 0));
  EXPECT_FALSE(c.reaches(0, 0));  // irreflexive
  EXPECT_TRUE(c.ordered(0, 3));
  EXPECT_TRUE(c.ordered(3, 0));
  EXPECT_FALSE(c.ordered(1, 2));
}

TEST(TransitiveClosure, ParallelSetsOfDiamond) {
  TaskGraph g(4);
  g.add_arc(0, 1);
  g.add_arc(0, 2);
  g.add_arc(1, 3);
  g.add_arc(2, 3);
  const GraphAnalysis c(g);
  EXPECT_EQ(c.parallel_set_size(0), 0u);
  EXPECT_EQ(c.parallel_set_size(3), 0u);
  EXPECT_EQ(c.parallel_set_size(1), 1u);
  EXPECT_EQ(c.parallel_set(1), (std::vector<NodeId>{2}));
  EXPECT_EQ(c.parallel_set(2), (std::vector<NodeId>{1}));
  EXPECT_EQ(c.descendant_count(0), 3u);
  EXPECT_EQ(c.ancestor_count(3), 3u);
  const auto sizes = c.parallel_set_sizes();
  EXPECT_EQ(std::vector<std::size_t>(sizes.begin(), sizes.end()),
            (std::vector<std::size_t>{0, 1, 1, 0}));
}

TEST(TransitiveClosure, IndependentTasksAreAllParallel) {
  const TaskGraph g(5);  // no arcs
  const GraphAnalysis c(g);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(c.parallel_set_size(v), 4u);
  }
}

TEST(TransitiveClosure, ChainHasEmptyParallelSets) {
  TaskGraph g(6);
  for (NodeId v = 0; v + 1 < 6; ++v) {
    g.add_arc(v, v + 1);
  }
  const GraphAnalysis c(g);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(c.parallel_set_size(v), 0u);
    EXPECT_EQ(c.descendant_count(v), 5u - v);
    EXPECT_EQ(c.ancestor_count(v), static_cast<std::size_t>(v));
  }
}

// Property: the bitset closure agrees with BFS reachability on random
// generated graphs, and the invariant n-1 = anc + desc + |Ψ| holds.
TEST(TransitiveClosure, MatchesBfsOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const TaskGraph& g = sc.application.graph();
    const GraphAnalysis c(g);
    const std::size_t n = g.node_count();
    for (NodeId u = 0; u < n; ++u) {
      std::size_t total = c.ancestor_count(u) + c.descendant_count(u) +
                          c.parallel_set_size(u);
      EXPECT_EQ(total, n - 1) << "node " << u;
      for (NodeId v = 0; v < n; ++v) {
        const bool expected = (u != v) && reachable(g, u, v);
        EXPECT_EQ(c.reaches(u, v), expected)
            << "seed " << seed << " " << u << "->" << v;
      }
    }
  }
}

TEST(TransitiveClosure, WorksBeyondOneBitsetWord) {
  // 70 nodes forces a second 64-bit word per row.
  TaskGraph g(70);
  for (NodeId v = 0; v + 1 < 70; ++v) {
    g.add_arc(v, v + 1);
  }
  const GraphAnalysis c(g);
  EXPECT_TRUE(c.reaches(0, 69));
  EXPECT_EQ(c.descendant_count(0), 69u);
  EXPECT_EQ(c.parallel_set_size(35), 0u);
}

}  // namespace
}  // namespace dsslice
