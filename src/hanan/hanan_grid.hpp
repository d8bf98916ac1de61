#pragma once

// 3D Hanan grid graph (Sec. 2.2 of the paper).
//
// The grid has H columns (x cuts), V rows (y cuts) and M routing layers.
// A vertex is addressed either by its (h, v, m) cell coordinate or by a
// flat index.  Edge costs are separable: moving between columns h and h+1
// costs x_step(h) on every row/layer, moving between rows v and v+1 costs
// y_step(v), and moving between adjacent layers costs the layout-wide via
// cost.  Obstacles are blocked vertices; additionally, individual edges can
// be blocked (needed when an obstacle spans two adjacent cuts with no cut
// strictly inside it, so that neither endpoint is blocked but the segment
// still crosses the obstacle interior).
//
// Two construction paths:
//   * HananGrid::from_layout(layout): geometric construction — consolidate
//     pins/obstacle boundaries of all layers into one set of x/y cuts, then
//     place objects back on their layers (paper Sec. 2.2).
//   * the direct constructor: "grid world" used by the random-layout
//     generator, which (like the paper's Table 1 subsets) specifies layouts
//     directly by their Hanan-graph dimensions and per-step costs.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geom/layout.hpp"

namespace oar::hanan {

using Vertex = std::int32_t;
constexpr Vertex kInvalidVertex = -1;

/// (h, v, m) cell coordinate of a Hanan vertex.
struct Cell {
  std::int32_t h = 0;
  std::int32_t v = 0;
  std::int32_t m = 0;

  friend auto operator<=>(const Cell&, const Cell&) = default;
};

/// Direction of the "positive" edge leaving a vertex; used for edge blocks.
enum class Dir : std::uint8_t { kPosX = 0, kPosY = 1, kPosZ = 2 };

class HananGrid {
 public:
  HananGrid() = default;

  /// Grid-world constructor.  `x_step` has size H-1, `y_step` size V-1; all
  /// steps must be positive.  `blocked` (if non-empty) has size H*V*M.
  HananGrid(std::int32_t H, std::int32_t V, std::int32_t M,
            std::vector<double> x_step, std::vector<double> y_step,
            double via_cost, std::vector<std::uint8_t> blocked = {},
            std::vector<Vertex> pins = {});

  /// Geometric construction from a physical layout (Sec. 2.2).
  static HananGrid from_layout(const geom::Layout& layout);

  std::int32_t h_dim() const { return h_; }
  std::int32_t v_dim() const { return v_; }
  std::int32_t m_dim() const { return m_; }
  std::int64_t num_vertices() const { return std::int64_t(h_) * v_ * m_; }

  double via_cost() const { return via_cost_; }
  double x_step(std::int32_t h) const { return x_step_[std::size_t(h)]; }
  double y_step(std::int32_t v) const { return y_step_[std::size_t(v)]; }

  /// Flat index of cell (h, v, m); layer-major so that one layer is a
  /// contiguous H*V slab.
  Vertex index(std::int32_t h, std::int32_t v, std::int32_t m) const {
    return Vertex((std::int64_t(m) * v_ + v) * h_ + h);
  }
  Vertex index(const Cell& c) const { return index(c.h, c.v, c.m); }

  Cell cell(Vertex idx) const {
    const std::int32_t h = idx % h_;
    const std::int32_t rest = idx / h_;
    return Cell{h, rest % v_, rest / v_};
  }

  bool is_blocked(Vertex idx) const { return blocked_[std::size_t(idx)] != 0; }
  bool is_pin(Vertex idx) const { return pin_mask_[std::size_t(idx)] != 0; }
  const std::vector<Vertex>& pins() const { return pins_; }

  void add_pin(Vertex idx);
  /// Removes every pin (the mask and the ordered list).  Lets one shared
  /// grid present a different net's pins per routing call (src/chip/)
  /// without re-copying the whole grid.
  void clear_pins();
  void block_vertex(Vertex idx);
  void block_edge(Vertex idx, Dir dir);

  /// Per-edge additive cost overlay ("bias"), keyed like edge blocks by the
  /// positive edge leaving a vertex.  The overlay is what makes committed
  /// routes *soft* obstacles for full-chip negotiated routing: congestion
  /// penalties raise an edge's cost without removing it from the graph.
  /// Biases must be >= 0 (Dijkstra requires non-negative weights) and are
  /// included in edge_cost()/cost_between()/for_each_neighbor(), so every
  /// consumer — including MazeRouter's CSR adjacency cache — sees them.
  /// Every overlay mutation bumps revision(), which is what keeps those
  /// caches coherent.
  bool has_edge_cost_bias() const { return !edge_bias_.empty(); }
  double edge_cost_bias(Vertex idx, Dir dir) const {
    return edge_bias_.empty()
               ? 0.0
               : edge_bias_[std::size_t(idx) * 3 + std::size_t(dir)];
  }
  void set_edge_cost_bias(Vertex idx, Dir dir, double bias);
  /// Bulk overlay update: `bias` is either empty (no overlay) or one value
  /// per (vertex, dir) slot, laid out idx*3 + dir, copied into the
  /// overlay's existing storage.  Returns true when the overlay actually
  /// changed (and revision() was bumped); re-applying an identical overlay
  /// is free and keeps downstream caches warm.
  bool set_edge_cost_biases(const std::vector<double>& bias);
  /// Drops the overlay and releases its storage (a routed chip's grid
  /// keeps no overlay buffer).
  void clear_edge_cost_biases();

  /// Cost of the edge between two adjacent vertices *excluding* any bias
  /// overlay — the physical wirelength metric reported by the full-chip
  /// router while searches run on the biased costs.
  double base_cost_between(Vertex a, Vertex b) const;

  /// True when the positive edge leaving `idx` in `dir` exists in-bounds,
  /// is not explicitly blocked, and neither endpoint is a blocked vertex.
  bool edge_usable(Vertex idx, Dir dir) const;

  /// Cost of the positive edge leaving `idx` in `dir` (unchecked).
  double edge_cost(Vertex idx, Dir dir) const;

  /// Cost between two adjacent vertices (asserts adjacency).
  double cost_between(Vertex a, Vertex b) const;

  /// Invoke fn(neighbor, cost) for every usable incident edge.  Costs
  /// include the bias overlay; a negative-direction edge carries the bias
  /// of the neighbor's positive slot (one slot per physical edge).
  template <typename Fn>
  void for_each_neighbor(Vertex idx, Fn&& fn) const {
    const Cell c = cell(idx);
    const Vertex layer_stride = Vertex(h_) * v_;
    if (edge_bias_.empty()) {
      if (c.h + 1 < h_ && edge_usable(idx, Dir::kPosX)) fn(idx + 1, x_step_[std::size_t(c.h)]);
      if (c.h > 0 && edge_usable(idx - 1, Dir::kPosX)) fn(idx - 1, x_step_[std::size_t(c.h - 1)]);
      if (c.v + 1 < v_ && edge_usable(idx, Dir::kPosY)) fn(idx + h_, y_step_[std::size_t(c.v)]);
      if (c.v > 0 && edge_usable(idx - h_, Dir::kPosY)) fn(idx - h_, y_step_[std::size_t(c.v - 1)]);
      if (c.m + 1 < m_ && edge_usable(idx, Dir::kPosZ)) fn(idx + layer_stride, via_cost_);
      if (c.m > 0 && edge_usable(idx - layer_stride, Dir::kPosZ)) fn(idx - layer_stride, via_cost_);
      return;
    }
    if (c.h + 1 < h_ && edge_usable(idx, Dir::kPosX))
      fn(idx + 1, x_step_[std::size_t(c.h)] + edge_cost_bias(idx, Dir::kPosX));
    if (c.h > 0 && edge_usable(idx - 1, Dir::kPosX))
      fn(idx - 1, x_step_[std::size_t(c.h - 1)] + edge_cost_bias(idx - 1, Dir::kPosX));
    if (c.v + 1 < v_ && edge_usable(idx, Dir::kPosY))
      fn(idx + h_, y_step_[std::size_t(c.v)] + edge_cost_bias(idx, Dir::kPosY));
    if (c.v > 0 && edge_usable(idx - h_, Dir::kPosY))
      fn(idx - h_, y_step_[std::size_t(c.v - 1)] + edge_cost_bias(idx - h_, Dir::kPosY));
    if (c.m + 1 < m_ && edge_usable(idx, Dir::kPosZ))
      fn(idx + layer_stride, via_cost_ + edge_cost_bias(idx, Dir::kPosZ));
    if (c.m > 0 && edge_usable(idx - layer_stride, Dir::kPosZ))
      fn(idx - layer_stride, via_cost_ + edge_cost_bias(idx - layer_stride, Dir::kPosZ));
  }

  /// Lexicographic (h, v, m) selection priority used by the combinatorial
  /// MCTS action ordering.  Lower value = higher priority.
  std::int64_t priority_of(Vertex idx) const {
    const Cell c = cell(idx);
    return (std::int64_t(c.h) * v_ + c.v) * m_ + c.m;
  }
  Vertex vertex_at_priority(std::int64_t p) const {
    const std::int32_t m = std::int32_t(p % m_);
    const std::int64_t rest = p / m_;
    return index(std::int32_t(rest / v_), std::int32_t(rest % v_), m);
  }

  /// Fraction of blocked vertices (grid-world analogue of Fig. 10's
  /// obstacle ratio).
  double blocked_ratio() const;

  /// Geometric cut coordinates when constructed from a layout (empty in
  /// grid world, where cut k is simply at the cumulative step distance).
  const std::vector<double>& x_cuts() const { return x_cuts_; }
  const std::vector<double>& y_cuts() const { return y_cuts_; }

  /// Empty string when internally consistent, else a problem report.
  std::string validate() const;

  /// Globally unique stamp, refreshed by every topology mutation (pins,
  /// blocked vertices/edges).  Lets consumers cache derived structures
  /// (e.g. MazeRouter's adjacency arrays) keyed on (address, revision):
  /// two grids only ever share both when their topology is identical.
  std::uint64_t revision() const { return revision_; }

 private:
  static std::uint64_t next_revision();

  std::int32_t h_ = 0, v_ = 0, m_ = 0;
  std::vector<double> x_step_;   // size h_-1
  std::vector<double> y_step_;   // size v_-1
  double via_cost_ = 1.0;
  std::vector<std::uint8_t> blocked_;     // per vertex
  std::vector<std::uint8_t> edge_block_;  // per vertex, bit per Dir
  std::vector<double> edge_bias_;         // per vertex, 3 slots per Dir; empty = no overlay
  std::vector<std::uint8_t> pin_mask_;    // per vertex
  std::vector<Vertex> pins_;
  std::vector<double> x_cuts_, y_cuts_;
  std::uint64_t revision_ = next_revision();
};

}  // namespace oar::hanan
