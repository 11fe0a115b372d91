#include "net/topology.h"

#include <algorithm>
#include <deque>
#include <set>

#include "util/check.h"

namespace abe {

Topology unidirectional_ring(std::size_t n) {
  ABE_CHECK_GE(n, 1u);
  Topology t;
  t.n = n;
  t.name = "ring-uni";
  if (n == 1) return t;  // a single node has no channel to itself
  for (std::size_t i = 0; i < n; ++i) {
    t.edges.push_back(Edge{i, (i + 1) % n});
  }
  return t;
}

Topology bidirectional_ring(std::size_t n) {
  ABE_CHECK_GE(n, 1u);
  Topology t;
  t.n = n;
  t.name = "ring-bi";
  if (n == 1) return t;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    t.edges.push_back(Edge{i, j});
    t.edges.push_back(Edge{j, i});
  }
  return t;
}

Topology line(std::size_t n) {
  ABE_CHECK_GE(n, 1u);
  Topology t;
  t.n = n;
  t.name = "line";
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.edges.push_back(Edge{i, i + 1});
    t.edges.push_back(Edge{i + 1, i});
  }
  return t;
}

Topology star(std::size_t n) {
  ABE_CHECK_GE(n, 1u);
  Topology t;
  t.n = n;
  t.name = "star";
  for (std::size_t i = 1; i < n; ++i) {
    t.edges.push_back(Edge{0, i});
    t.edges.push_back(Edge{i, 0});
  }
  return t;
}

Topology complete(std::size_t n) {
  ABE_CHECK_GE(n, 1u);
  Topology t;
  t.n = n;
  t.name = "complete";
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) t.edges.push_back(Edge{i, j});
    }
  }
  return t;
}

Topology grid(std::size_t rows, std::size_t cols) {
  ABE_CHECK_GE(rows, 1u);
  ABE_CHECK_GE(cols, 1u);
  Topology t;
  t.n = rows * cols;
  t.name = "grid";
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        t.edges.push_back(Edge{id(r, c), id(r, c + 1)});
        t.edges.push_back(Edge{id(r, c + 1), id(r, c)});
      }
      if (r + 1 < rows) {
        t.edges.push_back(Edge{id(r, c), id(r + 1, c)});
        t.edges.push_back(Edge{id(r + 1, c), id(r, c)});
      }
    }
  }
  return t;
}

Topology torus(std::size_t rows, std::size_t cols) {
  ABE_CHECK_GE(rows, 2u);
  ABE_CHECK_GE(cols, 2u);
  Topology t;
  t.n = rows * cols;
  t.name = "torus";
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  // A dimension of 2 wraps onto the neighbour it already has, emitting each
  // of those edges twice; only then is the set needed to keep the first.
  const bool dedup = rows == 2 || cols == 2;
  t.edges.reserve(4 * t.n);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  auto add = [&](std::size_t a, std::size_t b) {
    if (!dedup || seen.insert({a, b}).second) t.edges.push_back(Edge{a, b});
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      add(id(r, c), id(r, (c + 1) % cols));
      add(id(r, (c + 1) % cols), id(r, c));
      add(id(r, c), id((r + 1) % rows, c));
      add(id((r + 1) % rows, c), id(r, c));
    }
  }
  return t;
}

Topology hypercube(std::size_t dim) {
  ABE_CHECK_LE(dim, 20u);
  Topology t;
  t.n = std::size_t{1} << dim;
  t.name = "hypercube";
  for (std::size_t i = 0; i < t.n; ++i) {
    for (std::size_t b = 0; b < dim; ++b) {
      t.edges.push_back(Edge{i, i ^ (std::size_t{1} << b)});
    }
  }
  return t;
}

Topology random_connected(std::size_t n, double p, Rng& rng) {
  ABE_CHECK_GE(n, 1u);
  ABE_CHECK_GE(p, 0.0);
  ABE_CHECK_LE(p, 1.0);
  // Tiny-n clamp (see header): with n <= 2 the single possible undirected
  // edge is mandatory, so any p < 1 only burns resample attempts.
  if (n <= 2) p = 1.0;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Topology t;
    t.n = n;
    t.name = "gnp";
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(p)) {
          t.edges.push_back(Edge{i, j});
          t.edges.push_back(Edge{j, i});
        }
      }
    }
    if (is_strongly_connected(t)) return t;
    // Raise the density gradually so sparse requests still terminate.
    p = std::min(1.0, p * 1.25 + 0.01);
  }
  ABE_CHECK(false) << "could not draw a connected G(n,p) after many attempts";
  return Topology{};
}

Topology random_geometric(std::size_t n, double radius, Rng& rng,
                          std::vector<double>* positions) {
  ABE_CHECK_GE(n, 1u);
  ABE_CHECK_GT(radius, 0.0);
  // Clamp into (0, √2]: no two points in the unit square are further apart,
  // so larger requests are equivalent and the growth loop below reaches
  // full coverage (guaranteed connectivity, any n) within a few attempts
  // from any starting radius.
  const double kSqrt2 = 1.4142135623730951;
  radius = std::min(radius, kSqrt2);
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform01();
    ys[i] = rng.uniform01();
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    Topology t;
    t.n = n;
    t.name = "geometric";
    const double r2 = radius * radius;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double dx = xs[i] - xs[j];
        const double dy = ys[i] - ys[j];
        if (dx * dx + dy * dy <= r2) {
          t.edges.push_back(Edge{i, j});
          t.edges.push_back(Edge{j, i});
        }
      }
    }
    if (is_strongly_connected(t)) {
      if (positions != nullptr) {
        positions->clear();
        for (std::size_t i = 0; i < n; ++i) {
          positions->push_back(xs[i]);
          positions->push_back(ys[i]);
        }
      }
      return t;
    }
    radius *= 1.2;  // grow the radio range until the field is connected
  }
  ABE_CHECK(false) << "could not connect geometric graph";
  return Topology{};
}

std::vector<std::vector<std::size_t>> out_adjacency(const Topology& t) {
  std::vector<std::vector<std::size_t>> adj(t.n);
  for (std::size_t e = 0; e < t.edges.size(); ++e) {
    adj[t.edges[e].from].push_back(e);
  }
  return adj;
}

std::vector<std::vector<std::size_t>> in_adjacency(const Topology& t) {
  std::vector<std::vector<std::size_t>> adj(t.n);
  for (std::size_t e = 0; e < t.edges.size(); ++e) {
    adj[t.edges[e].to].push_back(e);
  }
  return adj;
}

namespace {

// BFS reachability over directed edges (forward or reversed).
std::size_t reachable_count(const Topology& t, bool reversed) {
  if (t.n == 0) return 0;
  std::vector<std::vector<std::size_t>> nbr(t.n);
  for (const Edge& e : t.edges) {
    if (reversed) {
      nbr[e.to].push_back(e.from);
    } else {
      nbr[e.from].push_back(e.to);
    }
  }
  std::vector<char> seen(t.n, 0);
  std::deque<std::size_t> queue{0};
  seen[0] = 1;
  std::size_t count = 1;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (std::size_t v : nbr[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        queue.push_back(v);
      }
    }
  }
  return count;
}

}  // namespace

bool is_strongly_connected(const Topology& t) {
  if (t.n <= 1) return true;
  return reachable_count(t, false) == t.n && reachable_count(t, true) == t.n;
}

std::size_t diameter(const Topology& t) {
  ABE_CHECK(is_strongly_connected(t));
  if (t.n <= 1) return 0;
  std::vector<std::vector<std::size_t>> nbr(t.n);
  for (const Edge& e : t.edges) nbr[e.from].push_back(e.to);
  std::size_t best = 0;
  for (std::size_t s = 0; s < t.n; ++s) {
    std::vector<std::size_t> dist(t.n, t.n + 1);
    std::deque<std::size_t> queue{s};
    dist[s] = 0;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (std::size_t v : nbr[u]) {
        if (dist[v] > dist[u] + 1) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    best = std::max(best, *std::max_element(dist.begin(), dist.end()));
  }
  return best;
}

void validate_topology(const Topology& t) {
  ABE_CHECK_GE(t.n, 1u);
  for (const Edge& e : t.edges) {
    ABE_CHECK_LT(e.from, t.n);
    ABE_CHECK_LT(e.to, t.n);
    ABE_CHECK_NE(e.from, e.to) << "self-loops are not supported";
  }
}

}  // namespace abe
