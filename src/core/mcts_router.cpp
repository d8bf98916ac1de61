#include "core/mcts_router.hpp"

#include <algorithm>
#include <iterator>

#include "route/oarmst.hpp"

namespace oar::core {

MctsRouter::MctsRouter(std::shared_ptr<rl::SteinerSelector> selector,
                       mcts::CombMctsConfig config,
                       std::shared_ptr<experience::Store> experience)
    : selector_(std::move(selector)),
      config_(config),
      experience_(std::move(experience)) {
  config_.validate();
}

route::OarmstResult MctsRouter::route(const hanan::HananGrid& grid) {
  return route(grid, std::nullopt);
}

route::OarmstResult MctsRouter::route(const hanan::HananGrid& grid,
                                      const mcts::SearchDeadline& deadline) {
  mcts::CombMctsConfig cfg = config_;
  cfg.iterations_per_move =
      mcts::scaled_iterations(config_.iterations_per_move, grid);

  mcts::CombMcts search(*selector_, cfg, experience_.get());
  const mcts::CombMctsResult searched = search.run(grid, deadline);
  stats_ = searched.stats;

  // Final construction (removal ON, mirroring RlRouter): the search's raw
  // state costs keep redundant points visible, but the tree we hand back
  // should not contain them.  Removal can make the executed combination
  // build a dearer tree than the best evaluated one, and the plain
  // no-Steiner construction keeps a degenerate search from ever losing to
  // "route the pins directly" — so build all three (each distinct one
  // once) and keep the cheapest connected tree, the earliest on ties.
  // Every candidate was exact-evaluated by the search, so an expired
  // deadline still routes a valid state (the anytime invariant).
  const std::vector<hanan::Vertex> no_steiner;
  const std::vector<hanan::Vertex>* candidates[] = {
      &searched.selected, &searched.best_selected, &no_steiner};
  route::OarmstRouter router(grid);
  route::RouterScratch& scratch = route::local_router_scratch();
  route::OarmstResult result;
  for (std::size_t i = 0; i < std::size(candidates); ++i) {
    const std::vector<hanan::Vertex>& combination = *candidates[i];
    if (std::any_of(candidates, candidates + i,
                    [&](const auto* c) { return *c == combination; })) {
      continue;
    }
    route::OarmstResult built = router.build(grid.pins(), combination, &scratch);
    if (i == 0 || (built.connected && (!result.connected || built.cost < result.cost))) {
      result = std::move(built);
    }
  }

  // Feed the episode back: the routed tree plus the search's fsp labels
  // and best combination become a warm-start record for future searches on
  // this (or a near-miss) layout.
  if (experience_ && !experience_->config().read_only && result.connected) {
    experience_->put(experience::build_record(grid, result, searched.label,
                                              searched.best_selected));
  }
  return result;
}

}  // namespace oar::core
