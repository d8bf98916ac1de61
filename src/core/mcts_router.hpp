#pragma once

// Search-based single-net engine ("rl-mcts"): instead of committing to the
// selector's one-shot top-(n-2) Steiner points like RlRouter, run the full
// combinatorial MCTS over the layout and route the best combination the
// search executed.  This is the paper's *training-time* search exposed as
// an inference engine — orders of magnitude slower than "rl-ours", but the
// strongest tree the repository can produce for a single net, and the
// natural consumer of the tree-parallel search (CombMctsConfig's
// search_workers, DESIGN.md §15).

#include <memory>

#include "experience/store.hpp"
#include "mcts/comb_mcts.hpp"
#include "steiner/router_base.hpp"

namespace oar::core {

class MctsRouter : public steiner::Router {
 public:
  /// `config.iterations_per_move` is the paper's alpha at the 16x16x4
  /// reference size; route() rescales it to each layout via
  /// mcts::scaled_iterations.  search_workers > 1 runs the tree-parallel
  /// search (0 = hardware concurrency).
  ///
  /// `experience` (optional) attaches a tiered experience store: the
  /// search warm-starts its root from it when config.warm_start is on
  /// (DESIGN.md §18), and every connected routed episode is appended back
  /// (unless the store is read-only), so searches keep getting warmer
  /// across calls — and, with a disk tier, across process restarts.
  explicit MctsRouter(std::shared_ptr<rl::SteinerSelector> selector,
                      mcts::CombMctsConfig config = {},
                      std::shared_ptr<experience::Store> experience = nullptr);

  std::string name() const override { return "rl-mcts"; }

  /// Search, then final OARMST construction (redundant-point removal on)
  /// — the same final flow as Fig. 2 — over pins plus the executed
  /// combination, the best evaluated combination and no Steiner points;
  /// the cheapest connected tree of the three is returned.
  route::OarmstResult route(const hanan::HananGrid& grid) override;

  /// Anytime entry (DESIGN.md §16): same as route() but the search runs
  /// against `deadline`.  When it fires, the candidates are the states
  /// the search reached so far (every one fully evaluated, never an
  /// invalid partial) and last_stats().deadline_hit is set.
  route::OarmstResult route(const hanan::HananGrid& grid,
                            const mcts::SearchDeadline& deadline);

  /// Search statistics of the most recent route() call (including
  /// deadline_hit for anytime calls).
  const mcts::CombMctsStats& last_stats() const { return stats_; }

 private:
  std::shared_ptr<rl::SteinerSelector> selector_;
  mcts::CombMctsConfig config_;
  std::shared_ptr<experience::Store> experience_;
  mcts::CombMctsStats stats_;
};

}  // namespace oar::core
