#pragma once

// Physical routing tree on a Hanan grid: a set of unit grid edges.  The
// tree is what the OARMST router produces and what every cost number in
// the benchmarks is computed from.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hanan/hanan_grid.hpp"

namespace oar::route {

using hanan::HananGrid;
using hanan::Vertex;

/// Canonical grid edge (a < b, adjacent vertices).
struct GridEdge {
  Vertex a = hanan::kInvalidVertex;
  Vertex b = hanan::kInvalidVertex;

  friend auto operator<=>(const GridEdge&, const GridEdge&) = default;
};

class RouteTree {
 public:
  explicit RouteTree(const HananGrid* grid = nullptr) : grid_(grid) {}

  /// Re-points the tree at an equivalent grid (same dims/costs).  Needed
  /// when a tree outlives the grid instance it was built against (e.g. a
  /// served reply's grid copy, or chip::ChipRouter's per-net grids).
  void rebind_grid(const HananGrid* grid) { grid_ = grid; }

  /// Adds the edge (deduplicated); returns true when newly inserted.
  bool add_edge(Vertex a, Vertex b);

  /// Adds every consecutive pair of `path` as an edge.
  void add_path(const std::vector<Vertex>& path);

  const std::vector<GridEdge>& edges() const { return edges_; }
  std::size_t num_edges() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }

  bool contains_vertex(Vertex v) const { return degree_.count(v) > 0; }
  int degree(Vertex v) const;

  /// Total cost: sum of grid edge costs over the (deduplicated) edge set.
  double cost() const;

  /// All distinct vertices touched by the tree.
  std::vector<Vertex> vertices() const;

  /// Checks the tree is a connected acyclic subgraph of usable grid edges
  /// spanning all of `terminals`.  Empty string when valid.
  std::string validate(const std::vector<Vertex>& terminals) const;

 private:
  static std::uint64_t key(Vertex a, Vertex b) {
    return (std::uint64_t(std::uint32_t(a)) << 32) | std::uint32_t(b);
  }

  const HananGrid* grid_;
  std::vector<GridEdge> edges_;
  std::unordered_set<std::uint64_t> edge_keys_;
  std::unordered_map<Vertex, int> degree_;
};

}  // namespace oar::route
