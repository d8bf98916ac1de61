#pragma once

// The RL ML-OARSMT router — the paper's end product (Fig. 2).
//
// route(grid):
//   1. one inference of the trained Steiner-point selector over the
//      encoded 3D Hanan graph,
//   2. take the top n-2 probability vertices as Steiner points,
//   3. run the OARMST router over pins + Steiner points (redundant-point
//      removal + rebuild) to produce the final tree.
//
// route(grid, memo) keeps steps 1-2's Steiner points in the memo, so a net
// rerouted under another congestion overlay runs step 3 alone.
//
// Timing of step 1 vs the total is recorded separately, matching the two
// runtime columns of the paper's Table 3.

#include <memory>

#include "rl/selector.hpp"
#include "steiner/router_base.hpp"

namespace oar::core {

using hanan::HananGrid;
using hanan::Vertex;

struct RlRouterTiming {
  double select_seconds = 0.0;  // Steiner-point selection (one inference;
                                // 0 when a memo supplied the points)
  double total_seconds = 0.0;   // selection + OARMST construction
};

struct RlRouterConfig {
  /// EXTENSION beyond the paper: after the single inference, instead of
  /// committing to exactly the top n-2 vertices, sweep the probability-
  /// ordered prefixes top-0 .. top-(n-2) and keep the cheapest routed tree
  /// (n-1 extra OARMST builds, no extra inference).  With the sweep the
  /// router can never lose to the plain no-Steiner construction, which
  /// insulates a weakly trained selector.  Off by default — the paper's
  /// flow commits to the top n-2 (Fig. 2).
  bool prefix_sweep = false;

  /// All fields are currently unconstrained; present so every *Config in
  /// the API shares the validate() contract.
  void validate() const {}
};

class RlRouter : public steiner::Router {
 public:
  explicit RlRouter(std::shared_ptr<rl::SteinerSelector> selector,
                    RlRouterConfig config = {});

  std::string name() const override {
    return config_.prefix_sweep ? "rl-ours+sweep" : "rl-ours";
  }
  route::OarmstResult route(const HananGrid& grid) override;
  route::OarmstResult route(const HananGrid& grid,
                            steiner::NetMemo& memo) override;

  /// Timing of the most recent route() call.
  const RlRouterTiming& last_timing() const { return timing_; }

  rl::SteinerSelector& selector() { return *selector_; }

 private:
  std::shared_ptr<rl::SteinerSelector> selector_;
  RlRouterConfig config_;
  RlRouterTiming timing_;
};

}  // namespace oar::core
