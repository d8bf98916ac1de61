#pragma once

// Common interface for every ML-OARSMT router in the repository — the
// algorithmic baselines and the RL router — so benchmarks can sweep a list
// of routers over a workload uniformly.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "route/oarmst.hpp"

namespace oar::steiner {

using hanan::HananGrid;
using hanan::Vertex;

/// What an engine may keep about one net between its routes within one
/// negotiation run (chip::ChipRouter::route owns one per net and drops it
/// when the call returns; DESIGN.md §14).
///
/// Contract: a memo holds only what depends on the grid's topology
/// (obstacles, step costs, usable edges) and the net's pins — never on the
/// edge-cost overlay, which changes between a net's routes.
struct NetMemo {
  /// The RL engine's Steiner points, chosen by one selector inference on
  /// the net's first route; empty until then.
  std::optional<std::vector<Vertex>> steiner_points;
};

class Router {
 public:
  virtual ~Router() = default;

  virtual std::string name() const = 0;

  /// Builds an obstacle-avoiding rectilinear Steiner tree over the grid's
  /// pins.  Implementations must return a tree whose validate() passes when
  /// the result is connected.
  virtual route::OarmstResult route(const HananGrid& grid) = 0;

  /// route(grid) for a net routed again under another cost overlay:
  /// `memo` carries what an earlier route of the same net on the same
  /// topology left (see NetMemo).  The default ignores it.
  virtual route::OarmstResult route(const HananGrid& grid, NetMemo& memo) {
    (void)memo;
    return route(grid);
  }
};

/// Plain spanning tree with no Steiner points: Prim over the maze-distance
/// metric closure, attaching at terminals only, cost = sum of path costs.
/// This is the denominator of the paper's ST-to-MST ratio (Figs. 11-12).
/// +infinity when the pins cannot be fully connected.  `scratch` selects
/// the routing scratch pool (nullptr = this thread's).
double mst_cost(const HananGrid& grid, route::RouterScratch* scratch = nullptr);

}  // namespace oar::steiner
