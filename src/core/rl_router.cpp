#include "core/rl_router.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace oar::core {

RlRouter::RlRouter(std::shared_ptr<rl::SteinerSelector> selector,
                   RlRouterConfig config)
    : selector_(std::move(selector)), config_(config) {}

route::OarmstResult RlRouter::route(const HananGrid& grid) {
  steiner::NetMemo memo;
  return route(grid, memo);
}

route::OarmstResult RlRouter::route(const HananGrid& grid,
                                    steiner::NetMemo& memo) {
  util::Timer total;
  util::Timer select;
  if (!memo.steiner_points) {
    // One network inference produces all Steiner points (paper Fig. 2),
    // ordered by descending probability.
    const std::int32_t budget =
        std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2);
    memo.steiner_points = selector_->select_steiner_points(grid, budget);
  }
  const std::vector<Vertex>& steiner = *memo.steiner_points;
  timing_.select_seconds = select.seconds();

  route::OarmstRouter router(grid);  // redundant-point removal on
  route::RouterScratch& scratch = route::local_router_scratch();
  route::OarmstResult result = router.build(grid.pins(), steiner, &scratch);

  if (config_.prefix_sweep) {
    // Probability-ordered prefixes: k = 0 is the plain construction, so the
    // swept result can never be worse than no Steiner points at all.
    for (std::size_t k = 0; k < steiner.size(); ++k) {
      const std::vector<Vertex> prefix(steiner.begin(),
                                       steiner.begin() + std::ptrdiff_t(k));
      route::OarmstResult trial = router.build(grid.pins(), prefix, &scratch);
      if (trial.connected && trial.cost < result.cost) result = std::move(trial);
    }
  }

  timing_.total_seconds = total.seconds();
  return result;
}

}  // namespace oar::core
