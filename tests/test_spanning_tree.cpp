// Tests for the BFS spanning-tree substrate, the sparse out-channel index
// and the polling/β wiring built from them.
#include "net/spanning_tree.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/polling_election.h"
#include "sim/rng.h"
#include "syncr/beta.h"

namespace abe {
namespace {

void expect_valid_tree(const SpanningTree& tree, std::size_t n) {
  ASSERT_EQ(tree.parent.size(), n);
  EXPECT_EQ(tree.parent[tree.root], tree.root);
  EXPECT_EQ(tree.depth[tree.root], 0u);
  // Every non-root has a parent with smaller depth; edges total n-1.
  std::size_t child_links = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (v != tree.root) {
      EXPECT_EQ(tree.depth[v], tree.depth[tree.parent[v]] + 1);
    }
    child_links += tree.children[v].size();
    for (std::size_t c : tree.children[v]) {
      EXPECT_EQ(tree.parent[c], v);
    }
  }
  EXPECT_EQ(child_links, n - 1);
  EXPECT_EQ(tree.edge_count(), n - 1);
}

TEST(SpanningTree, LineIsAPath) {
  const Topology t = line(6);
  const SpanningTree tree = bfs_spanning_tree(t, 0);
  expect_valid_tree(tree, 6);
  EXPECT_EQ(tree.height(), 5u);
  for (std::size_t v = 1; v < 6; ++v) {
    EXPECT_EQ(tree.parent[v], v - 1);
  }
}

TEST(SpanningTree, StarFromHubHasHeightOne) {
  const SpanningTree tree = bfs_spanning_tree(star(9), 0);
  expect_valid_tree(tree, 9);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.children[0].size(), 8u);
}

TEST(SpanningTree, StarFromSpokeHasHeightTwo) {
  const SpanningTree tree = bfs_spanning_tree(star(9), 3);
  expect_valid_tree(tree, 9);
  EXPECT_EQ(tree.height(), 2u);
}

TEST(SpanningTree, GridBfsDepthsAreManhattan) {
  const SpanningTree tree = bfs_spanning_tree(grid(3, 4), 0);
  expect_valid_tree(tree, 12);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(tree.depth[r * 4 + c], r + c);
    }
  }
}

TEST(SpanningTree, CompleteGraphHeightOne) {
  const SpanningTree tree = bfs_spanning_tree(complete(7), 2);
  expect_valid_tree(tree, 7);
  EXPECT_EQ(tree.height(), 1u);
}

TEST(SpanningTree, SingleNode) {
  const SpanningTree tree = bfs_spanning_tree(unidirectional_ring(1), 0);
  EXPECT_EQ(tree.edge_count(), 0u);
  EXPECT_EQ(tree.height(), 0u);
}

TEST(SpanningTree, UnidirectionalRingRejected) {
  // Tree edges need reverse channels; a one-way ring has none.
  EXPECT_DEATH(bfs_spanning_tree(unidirectional_ring(4), 0), "reverse");
}

TEST(SpanningTree, UnreachableNodeRejected) {
  // Node 2 only sends; nothing reaches it from root 0.
  Topology t;
  t.n = 3;
  t.edges = {Edge{0, 1}, Edge{1, 0}, Edge{2, 0}};
  EXPECT_DEATH(bfs_spanning_tree(t, 0), "unreachable");
  // Reachable but unable to answer: the tree edge 0->2 has no way back.
  t.edges = {Edge{0, 1}, Edge{1, 0}, Edge{0, 2}};
  EXPECT_DEATH(bfs_spanning_tree(t, 0), "reverse");
}

TEST(SpanningTree, OutChannelMapConsistent) {
  const Topology t = grid(2, 3);
  const OutChannelIndex index(t);
  const auto out = out_adjacency(t);
  for (std::size_t u = 0; u < t.n; ++u) {
    for (std::size_t k = 0; k < out[u].size(); ++k) {
      const std::size_t v = t.edges[out[u][k]].to;
      EXPECT_EQ(index.lookup(u, v), k);
    }
  }
}

// The n×n map the index replaced: a later channel to the same neighbour
// overwrites an earlier one.
std::vector<std::vector<std::size_t>> dense_channel_map(const Topology& t) {
  const auto out = out_adjacency(t);
  std::vector<std::vector<std::size_t>> map(
      t.n, std::vector<std::size_t>(t.n, OutChannelIndex::kNone));
  for (std::size_t u = 0; u < t.n; ++u) {
    for (std::size_t k = 0; k < out[u].size(); ++k) {
      map[u][t.edges[out[u][k]].to] = k;
    }
  }
  return map;
}

TEST(SpanningTree, OutChannelIndexMatchesDenseReference) {
  Rng rng(20100725);
  const std::vector<Topology> topologies = {
      grid(2, 3),
      torus(2, 2),
      torus(2, 5),
      torus(3, 3),
      complete(7),
      hypercube(4),
      random_connected(24, 0.2, rng),
      bidirectional_ring(2),
  };
  for (const Topology& t : topologies) {
    SCOPED_TRACE(t.name + " n=" + std::to_string(t.n));
    const OutChannelIndex index(t);
    const auto dense = dense_channel_map(t);
    for (std::size_t u = 0; u < t.n; ++u) {
      for (std::size_t v = 0; v < t.n; ++v) {
        EXPECT_EQ(index.lookup(u, v), dense[u][v]) << u << "->" << v;
      }
    }
  }
  // Parallel edges: bidirectional_ring(2) has 0->1 as channels 0 and 1.
  EXPECT_EQ(OutChannelIndex(bidirectional_ring(2)).lookup(0, 1), 1u);
}

TEST(SpanningTree, TorusMatchesSetDedupBuilder) {
  for (std::size_t rows = 2; rows <= 5; ++rows) {
    for (std::size_t cols = 2; cols <= 5; ++cols) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      // The builder as it was: every edge through a seen-set.
      std::vector<Edge> expected;
      std::set<std::pair<std::size_t, std::size_t>> seen;
      auto add = [&](std::size_t a, std::size_t b) {
        if (a == b) return;
        if (seen.insert({a, b}).second) expected.push_back(Edge{a, b});
      };
      auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          add(id(r, c), id(r, (c + 1) % cols));
          add(id(r, (c + 1) % cols), id(r, c));
          add(id(r, c), id((r + 1) % rows, c));
          add(id((r + 1) % rows, c), id(r, c));
        }
      }
      const Topology t = torus(rows, cols);
      EXPECT_EQ(t.n, rows * cols);
      ASSERT_EQ(t.edges.size(), expected.size());
      for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(t.edges[e].from, expected[e].from) << "edge " << e;
        EXPECT_EQ(t.edges[e].to, expected[e].to) << "edge " << e;
      }
    }
  }
}

// Polling and β wiring on a 128×128 torus must stay sparse: the dense n×n
// tables they once built peaked near 2 GB on this input. Measured in a child process
// so the peak-RSS reading starts from a clean high-water mark.
TEST(SpanningTree, WiringOnLargeTorusStaysSparse) {
  const auto peak_rss_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<long>(usage.ru_maxrss);
  };
  EXPECT_EXIT(
      {
        const long before = peak_rss_kb();
        const Topology t = torus(128, 128);
        const auto polling = build_polling_wiring(t, 0);
        const auto beta = build_beta_wiring(t, bfs_spanning_tree(t, 0));
        const long growth_mb = (peak_rss_kb() - before) / 1024;
        const bool sized = polling.size() == t.n && beta.size() == t.n;
        if (sized && growth_mb < 64) std::exit(0);
        std::fprintf(stderr, "peak RSS grew %ld MB\n", growth_mb);
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace abe
