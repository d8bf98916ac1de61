#pragma once

// Full-chip multi-net router: PathFinder-style negotiated rip-up & reroute
// over one shared HananGrid (DESIGN.md §14).
//
// Iteration 0 routes every net in heuristic order on the bare grid plus a
// congestion cost overlay (chip/congestion.hpp) that reflects the nets
// committed so far.  Each later iteration escalates the present-congestion
// factor, accrues history cost on every over-capacity edge, and rips up &
// reroutes contested nets until no edge is over capacity or the iteration
// cap is hit.  Committed routes are *soft* obstacles throughout — edges
// stay usable, they just get more expensive — so any net routable alone
// stays routable in the full-chip problem and the loop can always trade
// wirelength for overflow.
//
// The single-net engine is pluggable (any steiner::Router — the baselines
// or the RL router); the engine sees the shared grid with exactly the
// active net's pins and the current overlay.  Every overlay write and
// every pin change bumps HananGrid::revision(), which keeps MazeRouter's
// CSR adjacency cache and the RL feature cache coherent across rip-ups.
// Each net route swaps the grid's pins, so every route rebuilds both.
//
// Each route() call keeps one steiner::NetMemo per net and passes it on
// every route of that net, so the RL engine runs its selector once per
// net per call and a reroute only rebuilds the tree on the new overlay.
// A memo holds only what depends on the topology and the net's pins,
// never on the overlay, and dies with the call (DESIGN.md §10/§14).

#include <memory>
#include <string>
#include <vector>

#include "chip/congestion.hpp"
#include "chip/netlist.hpp"
#include "chip/ordering.hpp"
#include "steiner/router_base.hpp"

namespace oar::chip {

struct ChipConfig {
  /// Routing order for iteration 0 (and for reroutes within an iteration).
  NetOrder order = NetOrder::kHpwl;
  /// Custom ordering key; overrides `order` when set.
  OrderKeyFn order_key;
  /// Negotiation iteration cap (>= 1).  Iteration 0 is the initial pass.
  std::int32_t max_iterations = 40;
  /// Per-edge net capacity (>= 1).
  std::int32_t edge_capacity = 1;
  /// Present-congestion multiplier of iteration 0 and its per-iteration
  /// growth (PathFinder's pres_fac schedule): iteration k routes with
  /// present_factor * present_growth^k.  A small initial factor lets nets
  /// take cheap detours around fresh congestion immediately while still
  /// claiming contested edges that matter; escalation then forces the
  /// remaining conflicts apart.
  double present_factor = 0.5;
  double present_growth = 1.6;
  /// History added to every over-capacity edge after each iteration.
  double history_increment = 0.4;
  /// Later iterations rip up only nets crossing over-capacity edges
  /// (false: rip up and reroute everything every iteration).
  bool reroute_only_overflowed = true;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Final committed route of one net (netlist order).
struct NetRoute {
  std::string name;
  route::RouteTree tree;
  /// Base-cost (unbiased) wirelength of the committed tree.
  double wirelength = 0.0;
  std::int32_t vias = 0;
  /// Times this net was routed across all iterations (1 = never ripped).
  std::int32_t reroutes = 0;
  bool routed = false;
};

/// Per-iteration negotiation telemetry (BENCH_chip.json's series).
struct IterationStats {
  std::int32_t iteration = 0;
  std::int64_t overflow = 0;          // after the iteration's reroutes
  std::int64_t overflowed_edges = 0;
  std::int32_t rerouted_nets = 0;
  double present_factor = 0.0;
  double wirelength = 0.0;            // committed base wirelength
  double seconds = 0.0;
};

struct ChipResult {
  /// The shared grid the final trees are bound to (pins and overlay
  /// cleared, so RouteTree::cost() is the base cost).  Kept alive here.
  std::shared_ptr<const HananGrid> grid;
  std::vector<NetRoute> nets;          // netlist order
  std::vector<IterationStats> iterations;
  std::int64_t overflow = 0;           // final
  double wirelength = 0.0;             // final committed base wirelength
  std::int64_t via_count = 0;
  std::int32_t iterations_run = 0;
  std::int32_t routed = 0;
  std::int32_t failed = 0;
  /// True when every net routed and the final overflow is zero.
  bool success = false;
  double total_seconds = 0.0;
};

/// Base-cost wirelength of a tree (sums HananGrid::base_cost_between).
double tree_wirelength(const HananGrid& grid, const route::RouteTree& tree);
/// Number of via (layer-crossing) edges in a tree.
std::int32_t tree_vias(const HananGrid& grid, const route::RouteTree& tree);

class ChipRouter {
 public:
  /// Copies `grid` as the shared working layout; the template grid must
  /// carry no pins of its own (each net brings its pins).  Validates
  /// `config` eagerly.
  ChipRouter(const HananGrid& grid, ChipConfig config = {});

  /// Routes the whole netlist through `engine`.  Throws
  /// std::invalid_argument when Netlist::validate(grid) reports a problem.
  ChipResult route(const Netlist& netlist, steiner::Router& engine);

  const ChipConfig& config() const { return config_; }

 private:
  HananGrid template_grid_;  // copied into a fresh working grid per route()
  ChipConfig config_;
};

}  // namespace oar::chip
