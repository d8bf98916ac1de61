// Anytime-search battery (DESIGN.md §16).
//
// The contract under test: with a deadline, run() stops claiming iterations
// once it has passed, but ALWAYS returns a valid critic-completed
// best-so-far state —
//   1. an already-expired deadline gets the one-iteration fallback (the
//      search never returns an empty tree),
//   2. best_selected routes to a connected OARMST whenever the deadline
//      fires mid-search,
//   3. a deadline that never fires leaves a one-worker run bitwise
//      identical to the unbounded one,
//   4. the MctsRouter facade surfaces deadline_hit and still hands back a
//      connected tree.

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "core/mcts_router.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "route/oarmst.hpp"

namespace oar::mcts {
namespace {

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 33;
  return cfg;
}

HananGrid test_grid(std::uint64_t seed, std::int32_t pins = 4) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = 6;
  spec.v = 6;
  spec.m = 2;
  spec.min_pins = pins;
  spec.max_pins = pins;
  spec.min_obstacles = 2;
  spec.max_obstacles = 4;
  spec.min_edge_cost = 1;
  spec.max_edge_cost = 10;
  return gen::random_grid(spec, rng);
}

CombMctsConfig quick_config(std::int32_t workers) {
  CombMctsConfig cfg;
  cfg.iterations_per_move = 24;
  cfg.use_critic = true;
  cfg.search_workers = workers;
  return cfg;
}

SearchDeadline expired_deadline() {
  return SearchClock::now() - std::chrono::milliseconds(5);
}

SearchDeadline far_deadline() {
  return SearchClock::now() + std::chrono::minutes(10);
}

void expect_bitwise_equal(const CombMctsResult& a, const CombMctsResult& b) {
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.best_selected, b.best_selected);
  ASSERT_EQ(a.label.size(), b.label.size());
  for (std::size_t i = 0; i < a.label.size(); ++i) {
    EXPECT_EQ(a.label[i], b.label[i]) << "label diverges at priority " << i;
  }
  EXPECT_EQ(a.label_mask, b.label_mask);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  EXPECT_EQ(a.stats.simulations, b.stats.simulations);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
  EXPECT_EQ(a.stats.executed_moves, b.stats.executed_moves);
}

/// The anytime invariant: the returned combination routes to a connected
/// tree (every best_selected entry was exact-evaluated by the search).
void expect_routes_connected(const HananGrid& grid,
                             const std::vector<Vertex>& combination) {
  route::OarmstRouter router(grid);
  const route::OarmstResult built =
      router.build(grid.pins(), combination, &route::local_router_scratch());
  EXPECT_TRUE(built.connected);
}

TEST(CombMctsAnytime, ExpiredDeadlineGetsOneIterationFallback) {
  rl::SteinerSelector selector(tiny_config());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const HananGrid grid = test_grid(seed, 5);
    CombMcts search(selector, quick_config(1));
    const CombMctsResult res = search.run(grid, expired_deadline());
    EXPECT_TRUE(res.stats.deadline_hit);
    // Zero slack still buys exactly one iteration — never an empty result.
    EXPECT_EQ(res.stats.iterations, 1);
    EXPECT_EQ(res.stats.executed_moves, 0);
    expect_routes_connected(grid, res.best_selected);
  }
}

TEST(CombMctsAnytime, FarDeadlineBitwiseMatchesUnbounded) {
  rl::SteinerSelector selector(tiny_config());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const HananGrid grid = test_grid(seed, 5);
    CombMcts unbounded(selector, quick_config(1));
    const CombMctsResult a = unbounded.run(grid);
    CombMcts bounded(selector, quick_config(1));
    const CombMctsResult b = bounded.run(grid, far_deadline());
    EXPECT_FALSE(b.stats.deadline_hit);
    expect_bitwise_equal(a, b);
  }
}

TEST(CombMctsAnytime, BestSelectedAlwaysRoutesConnected) {
  // Whatever the deadline, best_selected must stay a routable combination.
  rl::SteinerSelector selector(tiny_config());
  const HananGrid grid = test_grid(21, 5);
  CombMcts search(selector, quick_config(1));
  const CombMctsResult res = search.run(grid);
  EXPECT_FALSE(res.stats.deadline_hit);
  expect_routes_connected(grid, res.best_selected);
}

TEST(ParallelCombMctsAnytime, SingleWorkerFarDeadlineBitwiseSerial) {
  // A far deadline leaves one worker bitwise on the unbounded run even on
  // a search object that has already run a deadline-bounded episode.
  rl::SteinerSelector selector(tiny_config());
  CombMcts reused(selector, quick_config(1));
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const HananGrid grid = test_grid(seed, 5);
    const CombMctsResult a = CombMcts(selector, quick_config(1)).run(grid);
    reused.run(grid, expired_deadline());
    const CombMctsResult b = reused.run(grid, far_deadline());
    EXPECT_FALSE(b.stats.deadline_hit);
    expect_bitwise_equal(a, b);
    EXPECT_EQ(b.stats.vloss_applied, b.stats.vloss_reverted);
  }
}

TEST(ParallelCombMctsAnytime, ExpiredDeadlineReturnsValidTree) {
  rl::SteinerSelector selector(tiny_config());
  for (std::int32_t workers : {1, 2, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    CombMcts search(selector, quick_config(workers));
    const HananGrid grid = test_grid(5, 5);
    const CombMctsResult res = search.run(grid, expired_deadline());
    EXPECT_TRUE(res.stats.deadline_hit);
    // The zero-slack fallback: at least one completed iteration.
    EXPECT_GE(res.stats.iterations, 1);
    EXPECT_EQ(res.stats.vloss_applied, res.stats.vloss_reverted);
    expect_routes_connected(grid, res.best_selected);
  }
}

TEST(ParallelCombMctsAnytime, MidSearchDeadlineStillCompletes) {
  // A deadline a few ms out lands mid-search (or not at all on a fast
  // machine); either way the result must be a valid evaluated state.
  rl::SteinerSelector selector(tiny_config());
  CombMcts search(selector, quick_config(2));
  const HananGrid grid = test_grid(9, 5);
  const SearchDeadline deadline =
      SearchClock::now() + std::chrono::milliseconds(2);
  const CombMctsResult res = search.run(grid, deadline);
  EXPECT_GE(res.stats.iterations, 1);
  expect_routes_connected(grid, res.best_selected);
}

TEST(MctsRouterEngine, AnytimeRouteStaysValidAndFlags) {
  auto shared = std::make_shared<rl::SteinerSelector>(tiny_config());
  for (std::int32_t workers : {1, 2}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    core::MctsRouter router(shared, quick_config(workers));
    const HananGrid grid = test_grid(13, 5);
    const route::OarmstResult res = router.route(grid, expired_deadline());
    EXPECT_TRUE(router.last_stats().deadline_hit);
    EXPECT_TRUE(res.connected);
  }
}

TEST(MctsRouterEngine, AnytimeFarDeadlineMatchesPlainRoute) {
  auto shared = std::make_shared<rl::SteinerSelector>(tiny_config());
  core::MctsRouter a(shared, quick_config(1));
  core::MctsRouter b(shared, quick_config(1));
  const HananGrid grid = test_grid(17, 5);
  const route::OarmstResult plain = a.route(grid);
  const route::OarmstResult timed = b.route(grid, far_deadline());
  EXPECT_FALSE(b.last_stats().deadline_hit);
  EXPECT_EQ(plain.cost, timed.cost);
  EXPECT_EQ(plain.connected, timed.connected);
}

}  // namespace
}  // namespace oar::mcts
