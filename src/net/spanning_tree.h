// BFS spanning trees and the out-channel index — substrate for the
// β-synchronizer and the polling election.
//
// The β-synchronizer coordinates rounds by convergecast/broadcast along a
// spanning tree of the communication graph, and the polling election runs
// its waves along the same kind of tree. The tree is computed offline from
// the topology (synchronizers are infrastructure, not anonymous algorithms,
// so global structure is fair game); the runtime protocol then only uses
// local channel indices, which OutChannelIndex resolves from neighbour ids.
//
// Both structures are sparse: building them costs O(n + m log d) time and
// O(n + m) memory (m directed edges, d the largest out-degree), so wiring
// grows with the edge count, never with n².
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "net/topology.h"

namespace abe {

struct SpanningTree {
  std::size_t root = 0;
  // parent[i] = parent node of i (root points at itself).
  std::vector<std::size_t> parent;
  // children[i] = child nodes of i.
  std::vector<std::vector<std::size_t>> children;
  // depth[i] = hops from the root.
  std::vector<std::size_t> depth;

  std::size_t height() const;
  std::size_t edge_count() const { return parent.empty() ? 0 : parent.size() - 1; }
};

// For each node u, its out-channels keyed by the neighbour they lead to:
// lookup(u, v) is the index k into out_adjacency(topology)[u] of a channel
// u → v, or kNone when u has no such channel. Where parallel edges exist
// (bidirectional_ring(2) has two 0 → 1 channels) the highest k wins.
class OutChannelIndex {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit OutChannelIndex(const Topology& topology);

  std::size_t lookup(std::size_t u, std::size_t v) const;

 private:
  // (neighbour, channel k) pairs of each node, sorted by neighbour, one
  // pair per neighbour.
  using Entry = std::pair<std::size_t, std::size_t>;
  std::vector<std::vector<Entry>> by_node_;
};

// Builds a BFS tree over the topology's directed edges, requiring that the
// reverse edge exists for every tree edge (the β protocol talks both ways).
// Aborts when a node is unreachable from the root ("unreachable") or a tree
// edge lacks its reverse channel ("reverse"). Together the two checks imply
// strong connectivity: every node reaches the root back up its tree path.
SpanningTree bfs_spanning_tree(const Topology& topology, std::size_t root);

}  // namespace abe
