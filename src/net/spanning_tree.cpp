#include "net/spanning_tree.h"

#include <algorithm>
#include <deque>

#include "util/check.h"

namespace abe {

std::size_t SpanningTree::height() const {
  std::size_t h = 0;
  for (std::size_t d : depth) h = std::max(h, d);
  return h;
}

OutChannelIndex::OutChannelIndex(const Topology& topology)
    : by_node_(topology.n) {
  // Channel k of u is u's k-th outgoing edge in edge order, as in
  // out_adjacency.
  for (const Edge& e : topology.edges) {
    ABE_CHECK_LT(e.from, topology.n);
    auto& entries = by_node_[e.from];
    entries.emplace_back(e.to, entries.size());
  }
  for (auto& entries : by_node_) {
    // Neighbour ascending, k descending: the first entry of each neighbour
    // carries its highest k, and unique keeps exactly that one.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second > b.second;
              });
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const Entry& a, const Entry& b) {
                                return a.first == b.first;
                              }),
                  entries.end());
  }
}

std::size_t OutChannelIndex::lookup(std::size_t u, std::size_t v) const {
  ABE_CHECK_LT(u, by_node_.size());
  const auto& entries = by_node_[u];
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), v,
      [](const Entry& entry, std::size_t key) { return entry.first < key; });
  return it != entries.end() && it->first == v ? it->second : kNone;
}

SpanningTree bfs_spanning_tree(const Topology& topology, std::size_t root) {
  validate_topology(topology);
  ABE_CHECK_LT(root, topology.n);

  // Forward adjacency in edge order (it fixes the BFS order, hence the
  // tree), plus the index for the reverse-channel check.
  std::vector<std::vector<std::size_t>> nbr(topology.n);
  for (const Edge& e : topology.edges) nbr[e.from].push_back(e.to);
  const OutChannelIndex channels(topology);

  constexpr std::size_t kUnseen = OutChannelIndex::kNone;
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(topology.n, kUnseen);
  tree.children.assign(topology.n, {});
  tree.depth.assign(topology.n, 0);
  tree.parent[root] = root;

  std::deque<std::size_t> queue{root};
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (std::size_t v : nbr[u]) {
      if (tree.parent[v] != kUnseen) continue;
      ABE_CHECK(channels.lookup(v, u) != OutChannelIndex::kNone)
          << "tree edge " << u << "->" << v
          << " lacks the reverse channel the β protocol needs";
      tree.parent[v] = u;
      tree.children[u].push_back(v);
      tree.depth[v] = tree.depth[u] + 1;
      queue.push_back(v);
    }
  }
  for (std::size_t v = 0; v < topology.n; ++v) {
    ABE_CHECK(tree.parent[v] != kUnseen)
        << "node " << v << " unreachable from root";
  }
  return tree;
}

}  // namespace abe
