// Tree-parallel CombMcts determinism & concurrency battery (DESIGN.md §15).
//
// The gates, strongest first:
//   1. search_workers = 1 is deterministic: labels, executed combination,
//      costs and tree statistics repeat bitwise across search objects,
//      across episodes on one object, and after K > 1 searches built
//      replicas from the same selector (test_mcts_golden.cpp pins the
//      one-worker digests themselves).
//   2. On exhaustively searchable layouts (3 pins => a one-point budget and
//      all-terminal children) every worker count reaches the identical
//      best-cost fixed point, because every root child is provably
//      evaluated (checked via the node count).
//   3. At K > 1 thread interleaving makes labels distribution-equivalent
//      rather than bitwise: over >= 64 fixed-seed episodes the mean
//      best/initial cost ratio of 2- and 4-worker searches must sit within
//      a small noise bound of the one-worker mean.
//   4. The virtual-loss invariant: every stamp is reverted by the end of
//      the episode (the search also self-checks this after every move and
//      throws — these runs completing IS the test passing).
//   5. Replicas carry the caller's int8 pack: every leaf forward of a
//      K = 2 int8 search runs int8.

#include "mcts/comb_mcts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/mcts_router.hpp"
#include "core/registry.hpp"
#include "gen/random_layout.hpp"
#include "obs/metrics.hpp"
#include "rl/trainer.hpp"

namespace oar::mcts {
namespace {

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 33;
  return cfg;
}

HananGrid test_grid(std::uint64_t seed, std::int32_t pins = 4,
                    std::int32_t h = 6, std::int32_t v = 6, std::int32_t m = 2,
                    std::int32_t obstacles = 2) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = pins;
  spec.max_pins = pins;
  spec.min_obstacles = obstacles;
  spec.max_obstacles = obstacles == 0 ? 0 : obstacles + 2;
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

void expect_bitwise_equal(const CombMctsResult& a, const CombMctsResult& b) {
  // Costs and executed combination.
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.selected, b.selected);
  // Labels: float-exact, element for element.
  ASSERT_EQ(a.label.size(), b.label.size());
  for (std::size_t i = 0; i < a.label.size(); ++i) {
    EXPECT_EQ(a.label[i], b.label[i]) << "label diverges at priority " << i;
  }
  EXPECT_EQ(a.label_mask, b.label_mask);
  EXPECT_EQ(a.best_selected, b.best_selected);
  // Tree statistics (everything except wall time).
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  EXPECT_EQ(a.stats.simulations, b.stats.simulations);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
  EXPECT_EQ(a.stats.executed_moves, b.stats.executed_moves);
  EXPECT_EQ(a.stats.vloss_applied, b.stats.vloss_applied);
}

TEST(ParallelCombMcts, SingleWorkerBitwiseIdenticalToSerial) {
  // The one-worker search runs on the caller's selector; a K = 4 search on
  // the same selector in between (replica construction, concurrent
  // forwards) must not perturb it.
  rl::SteinerSelector selector(tiny_config());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const HananGrid grid = test_grid(seed, 5);
    const CombMctsResult a = CombMcts(selector, quick_config(1)).run(grid);
    CombMcts(selector, quick_config(4)).run(grid);
    const CombMctsResult b = CombMcts(selector, quick_config(1)).run(grid);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_bitwise_equal(a, b);
    EXPECT_EQ(b.stats.vloss_applied, b.stats.vloss_reverted);
  }
}

TEST(ParallelCombMcts, SingleWorkerRepeatedEpisodesStayBitwise) {
  // One search object reused across episodes matches fresh objects.
  rl::SteinerSelector selector(tiny_config());
  CombMcts reused(selector, quick_config(1));
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const HananGrid grid = test_grid(seed, 5);
    const CombMctsResult a = CombMcts(selector, quick_config(1)).run(grid);
    const CombMctsResult b = reused.run(grid);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_bitwise_equal(a, b);
  }
}

TEST(ParallelCombMcts, VirtualLossesAllRevertedAfterEveryEpisode) {
  rl::SteinerSelector selector(tiny_config());
  for (std::int32_t workers : {2, 4}) {
    CombMctsConfig cfg = quick_config(workers);
    CombMcts search(selector, cfg);
    for (std::uint64_t seed = 21; seed <= 23; ++seed) {
      const HananGrid grid = test_grid(seed, 5);
      // run() self-checks the per-edge vloss counters after every root
      // move and throws std::logic_error on violation — completing at all
      // is the structural half of this test.
      const CombMctsResult r = search.run(grid);
      EXPECT_GT(r.stats.vloss_applied, 0);
      EXPECT_EQ(r.stats.vloss_applied, r.stats.vloss_reverted)
          << "workers=" << workers << " seed=" << seed;
      EXPECT_LE(r.best_cost, r.initial_cost + 1e-9);
    }
  }
}

TEST(ParallelCombMcts, ExhaustiveLayoutsReachIdenticalBestCost) {
  // 3 pins => budget 1 => every root child is terminal at level 1.  With an
  // iteration budget far beyond the child count, UCT provably evaluates
  // every child (the node count asserts it), so best_cost is the exhaustive
  // optimum — EXACTLY equal across every worker count.
  rl::SteinerSelector selector(tiny_config());
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    const HananGrid grid = test_grid(seed, /*pins=*/3, 3, 3, 2, /*obstacles=*/0);
    std::int64_t n_children = 0;
    for (Vertex v = 0; v < grid.num_vertices(); ++v) {
      if (!grid.is_pin(v) && !grid.is_blocked(v)) ++n_children;
    }
    CombMctsConfig cfg;
    cfg.iterations_per_move = 4000;

    const CombMctsResult base = CombMcts(selector, cfg).run(grid);
    ASSERT_EQ(base.stats.nodes, n_children)
        << "seed " << seed << ": one-worker search did not exhaust the layout";

    for (std::int32_t workers : {2, 4}) {
      CombMctsConfig pcfg = cfg;
      pcfg.search_workers = workers;
      const CombMctsResult r = CombMcts(selector, pcfg).run(grid);
      SCOPED_TRACE("seed " + std::to_string(seed) + " workers " +
                   std::to_string(workers));
      ASSERT_EQ(r.stats.nodes, n_children) << "search did not exhaust";
      EXPECT_DOUBLE_EQ(r.best_cost, base.best_cost);
      EXPECT_DOUBLE_EQ(r.initial_cost, base.initial_cost);
    }
  }
}

TEST(ParallelCombMcts, StatisticalEquivalenceOverFixedSeedEpisodes) {
  // >= 64 fixed-seed episodes, one worker vs 2 and 4 workers, means
  // within a noise bound.  Layout quality is measured as
  // best_cost / initial_cost (lower = better), the trainer's own
  // mean_mcts_st_mst metric.
  rl::SteinerSelector selector(tiny_config());
  constexpr std::uint64_t kEpisodes = 64;
  CombMctsConfig cfg;
  cfg.iterations_per_move = 12;

  std::vector<HananGrid> grids;
  grids.reserve(kEpisodes);
  for (std::uint64_t e = 0; e < kEpisodes; ++e) {
    grids.push_back(test_grid(100 + e, 4, 5, 5, 2));
  }

  auto mean_ratio = [&](std::int32_t workers) {
    double sum = 0.0;
    std::size_t count = 0;
    CombMctsConfig wcfg = cfg;
    wcfg.search_workers = workers;
    CombMcts search(selector, wcfg);
    for (const HananGrid& grid : grids) {
      const CombMctsResult r = search.run(grid);
      if (r.initial_cost > 0.0 && std::isfinite(r.initial_cost)) {
        sum += r.best_cost / r.initial_cost;
        ++count;
      }
    }
    EXPECT_GT(count, kEpisodes / 2);
    return sum / double(count);
  };

  const double one_mean = mean_ratio(1);
  const double two_mean = mean_ratio(2);
  const double four_mean = mean_ratio(4);
  // The ratio lives in (0, 1]; 0.05 absolute is ~4 sigma of the observed
  // per-episode spread at this layout size.
  EXPECT_NEAR(two_mean, one_mean, 0.05);
  EXPECT_NEAR(four_mean, one_mean, 0.05);
}

TEST(ParallelCombMcts, HardwareWorkerCountResolvesAndRuns) {
  rl::SteinerSelector selector(tiny_config());
  CombMctsConfig cfg = quick_config(0);  // 0 = hardware concurrency
  CombMcts search(selector, cfg);
  EXPECT_GE(search.workers(), 1);
  const HananGrid grid = test_grid(41, 4);
  const CombMctsResult r = search.run(grid);
  EXPECT_EQ(r.stats.vloss_applied, r.stats.vloss_reverted);
  EXPECT_LE(std::int64_t(r.selected.size()),
            std::int64_t(grid.pins().size()) - 2);
}

TEST(ParallelCombMcts, Int8ReplicasRunEveryLeafForward) {
  // A replica that lost the int8 pack would silently serve fp32, so the
  // fp32 counter must not move while the int8 counter moves once per leaf
  // forward the search ran, on either worker.
  rl::SteinerSelector selector(tiny_config());
  std::vector<HananGrid> grids;
  for (std::uint64_t seed = 51; seed <= 53; ++seed) grids.push_back(test_grid(seed, 6));
  selector.calibrate_int8({&grids[0], &grids[1], &grids[2]});
  ASSERT_TRUE(selector.int8_active());

  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& fp32 = reg.counter("oar_nn_quant_fp32_forwards_total");
  obs::Counter& int8 = reg.counter("oar_nn_quant_int8_forwards_total");
  obs::Counter& fsp_calls = reg.counter("oar_mcts_fsp_calls_total");
  CombMcts search(selector, quick_config(2));
  ASSERT_EQ(search.workers(), 2);
  for (const HananGrid& grid : grids) {
    const std::uint64_t fp32_before = fp32.value();
    const std::uint64_t int8_before = int8.value();
    const std::uint64_t calls_before = fsp_calls.value();
    const CombMctsResult r = search.run(grid);
    EXPECT_GT(r.stats.expansions, 0);
    EXPECT_EQ(fp32.value() - fp32_before, 0u);
    EXPECT_EQ(int8.value() - int8_before, fsp_calls.value() - calls_before);
    if (obs::kMetricsCompiled) {
      EXPECT_GE(fsp_calls.value() - calls_before, std::uint64_t(r.stats.expansions));
    }
  }
}

TEST(ParallelCombMcts, TrainerUsesParallelSearchWhenConfigured) {
  rl::SteinerSelector selector([] {
    rl::SelectorConfig cfg;
    cfg.unet.base_channels = 4;
    cfg.unet.depth = 1;
    cfg.unet.seed = 101;
    return cfg;
  }());
  rl::TrainConfig cfg;
  cfg.sizes = {{6, 6, 2}};
  cfg.layouts_per_size = 2;
  cfg.stages = 1;
  cfg.epochs_per_stage = 1;
  cfg.batch_size = 8;
  cfg.augment_count = 4;
  cfg.mcts.iterations_per_move = 12;
  cfg.mcts.search_workers = 2;
  cfg.curriculum_stages = 1;
  cfg.min_pins = 3;
  cfg.max_pins = 4;
  cfg.threads = 2;
  rl::CombTrainer trainer(selector, cfg);
  const rl::StageReport report = trainer.run_stage();
  EXPECT_EQ(report.raw_samples, 2);
  EXPECT_GT(report.train_samples, 0);
  EXPECT_TRUE(std::isfinite(report.mean_loss));
}

TEST(MctsRouterEngine, RegisteredAndRoutesThroughParallelSearch) {
  EXPECT_TRUE(core::RouterRegistry::instance().contains("rl-mcts"));

  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  CombMctsConfig cfg;
  cfg.iterations_per_move = 12;
  cfg.search_workers = 2;
  core::MctsRouter router(selector, cfg);
  EXPECT_EQ(router.name(), "rl-mcts");

  const HananGrid grid = test_grid(61, 5);
  const route::OarmstResult result = router.route(grid);
  EXPECT_TRUE(result.connected);
  EXPECT_TRUE(std::isfinite(result.cost));
  EXPECT_GT(router.last_stats().iterations, 0);
}

TEST(MctsRouterEngine, RoutesTheCheapestOfExecutedBestAndPlain) {
  // Redundant-point removal can make the executed combination build a
  // dearer tree than the best evaluated one; the router must then return
  // the cheaper tree.  Scan seeded 16x16x4 layouts for such a case (the
  // one-worker search is deterministic, so a separate search reproduces
  // the router's) and check the routed cost on every layout scanned.
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  CombMctsConfig cfg;
  cfg.iterations_per_move = 64;
  core::MctsRouter router(selector, cfg);
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    util::Rng rng(seed);
    gen::RandomGridSpec spec;
    spec.h = 16;
    spec.v = 16;
    spec.m = 4;
    spec.min_pins = 5;
    spec.max_pins = 8;
    const HananGrid grid = gen::random_grid(spec, rng);
    const route::OarmstResult routed = router.route(grid);

    CombMctsConfig scaled = cfg;
    scaled.iterations_per_move = scaled_iterations(cfg.iterations_per_move, grid);
    const CombMctsResult searched = CombMcts(*selector, scaled).run(grid);
    route::OarmstRouter final_router(grid);
    const route::OarmstResult executed = final_router.build(grid.pins(), searched.selected);
    const route::OarmstResult best = final_router.build(grid.pins(), searched.best_selected);
    ASSERT_TRUE(routed.connected);
    EXPECT_LE(routed.cost, best.cost) << "seed " << seed;
    EXPECT_LE(routed.cost, executed.cost) << "seed " << seed;
    found = best.cost < executed.cost;
  }
  EXPECT_TRUE(found) << "no scanned layout had best_selected build cheaper than selected";
}

}  // namespace
}  // namespace oar::mcts
