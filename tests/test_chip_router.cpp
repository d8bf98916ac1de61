#include "chip/chip_router.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "chip/congestion.hpp"
#include "core/rl_router.hpp"
#include "core/router.hpp"
#include "gen/random_layout.hpp"
#include "gen/random_netlist.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "rl/selector.hpp"
#include "steiner/lin08.hpp"

namespace oar::chip {
namespace {

HananGrid open_grid(std::int32_t h, std::int32_t v, std::int32_t m) {
  return HananGrid(h, v, m, std::vector<double>(std::size_t(h - 1), 1.0),
                   std::vector<double>(std::size_t(v - 1), 1.0), 1.5);
}

/// Recounts usage from the committed trees and checks every edge is within
/// capacity and every tree is a valid routing of its net.
void expect_consistent(const ChipResult& result, const Netlist& netlist,
                       std::int32_t capacity = 1) {
  CongestionMap recount(*result.grid, capacity);
  std::vector<const route::RouteTree*> trees;
  for (std::size_t i = 0; i < result.nets.size(); ++i) {
    const NetRoute& net = result.nets[i];
    ASSERT_TRUE(net.routed) << net.name;
    EXPECT_EQ(net.tree.validate(netlist.nets[i].pins), "") << net.name;
    for (const Vertex v : net.tree.vertices()) {
      EXPECT_FALSE(result.grid->is_blocked(v)) << net.name;
    }
    recount.commit(net.tree);
    trees.push_back(&net.tree);
  }
  EXPECT_EQ(recount.overflow(), 0);
  EXPECT_TRUE(recount.matches(trees));
}

TEST(ChipRouter, TwoNetContentionConvergesToDisjointRoutes) {
  // 4x2 single-layer grid.  Both nets want the bottom row: a spans it,
  // b sits in its middle.  The overflow-free optimum detours one of them
  // through the top row; either way the total wirelength is 6.
  const auto grid = open_grid(4, 2, 1);
  Netlist netlist;
  netlist.nets.push_back({"a", {grid.index(0, 0, 0), grid.index(3, 0, 0)}});
  netlist.nets.push_back({"b", {grid.index(1, 0, 0), grid.index(2, 0, 0)}});

  steiner::Lin08Router engine;
  ChipConfig config;
  config.max_iterations = 20;
  ChipRouter chip_router(grid, config);
  const ChipResult result = chip_router.route(netlist, engine);

  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.overflow, 0);
  EXPECT_EQ(result.routed, 2);
  EXPECT_EQ(result.failed, 0);
  EXPECT_DOUBLE_EQ(result.wirelength, 6.0);
  expect_consistent(result, netlist);

  // Per-iteration telemetry: the series ends at zero overflow.
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_EQ(result.iterations.back().overflow, 0);
  EXPECT_EQ(result.iterations_run, std::int32_t(result.iterations.size()));
}

TEST(ChipRouter, SecondRouteDoesNotDisturbFirstResult) {
  const auto grid = open_grid(4, 2, 1);
  Netlist netlist;
  netlist.nets.push_back({"a", {grid.index(0, 0, 0), grid.index(3, 0, 0)}});
  netlist.nets.push_back({"b", {grid.index(1, 0, 0), grid.index(2, 0, 0)}});

  steiner::Lin08Router engine;
  ChipRouter chip_router(grid);
  const ChipResult first = chip_router.route(netlist, engine);
  const double wl = first.wirelength;
  const ChipResult second = chip_router.route(netlist, engine);
  // Each result owns its grid; the first result's trees still validate.
  EXPECT_NE(first.grid.get(), second.grid.get());
  expect_consistent(first, netlist);
  EXPECT_DOUBLE_EQ(first.wirelength, wl);
  EXPECT_DOUBLE_EQ(second.wirelength, wl);
}

TEST(ChipRouter, FinalGridIsQuiescent) {
  const auto grid = open_grid(4, 2, 1);
  Netlist netlist;
  netlist.nets.push_back({"a", {grid.index(0, 0, 0), grid.index(3, 0, 0)}});
  netlist.nets.push_back({"b", {grid.index(1, 0, 0), grid.index(2, 0, 0)}});
  steiner::Lin08Router engine;
  const ChipResult result = ChipRouter(grid).route(netlist, engine);
  EXPECT_TRUE(result.grid->pins().empty());
  EXPECT_FALSE(result.grid->has_edge_cost_bias());
  // With the overlay cleared, RouteTree::cost() is the base wirelength.
  double total = 0.0;
  for (const NetRoute& net : result.nets) total += net.tree.cost();
  EXPECT_DOUBLE_EQ(total, result.wirelength);
}

TEST(ChipRouter, RejectsNetlistProblemsNamingTheNet) {
  auto grid = open_grid(4, 4, 1);
  grid.block_vertex(grid.index(2, 2, 0));
  Netlist netlist;
  netlist.nets.push_back({"clk", {grid.index(0, 0, 0), grid.index(2, 2, 0)}});
  steiner::Lin08Router engine;
  ChipRouter chip_router(grid);
  try {
    chip_router.route(netlist, engine);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nets[\"clk\"]"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked"), std::string::npos) << what;
  }
}

TEST(ChipRouter, RejectsTemplateGridWithPins) {
  auto grid = open_grid(4, 4, 1);
  grid.add_pin(grid.index(0, 0, 0));
  EXPECT_THROW(ChipRouter{grid}, std::invalid_argument);
}

TEST(ChipRouter, ReportsUnroutableNetWithoutLivelock) {
  // The middle column is fully blocked on the only layer: net "cross"
  // cannot exist.  The loop must stop early, not burn the iteration cap.
  auto grid = open_grid(5, 3, 1);
  for (std::int32_t v = 0; v < 3; ++v) grid.block_vertex(grid.index(2, v, 0));
  Netlist netlist;
  netlist.nets.push_back({"left", {grid.index(0, 0, 0), grid.index(1, 2, 0)}});
  netlist.nets.push_back({"cross", {grid.index(1, 1, 0), grid.index(3, 1, 0)}});
  steiner::Lin08Router engine;
  ChipConfig config;
  config.max_iterations = 40;
  const ChipResult result = ChipRouter(grid, config).route(netlist, engine);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.routed, 1);
  EXPECT_EQ(result.failed, 1);
  EXPECT_FALSE(result.nets[1].routed);
  EXPECT_LT(result.iterations_run, config.max_iterations);
}

TEST(ChipRouter, RandomChipConvergesAndValidates) {
  util::Rng rng(7);
  gen::RandomGridSpec spec;
  spec.h = 16;
  spec.v = 16;
  spec.m = 4;
  spec.min_obstacles = 20;
  spec.max_obstacles = 20;
  auto grid = gen::random_grid(spec, rng);
  grid.clear_pins();  // the netlist brings the pins

  const auto netlist = gen::random_netlist(grid, 10, rng);
  EXPECT_EQ(netlist.validate(grid), "");

  steiner::Lin08Router engine;
  const ChipResult result = ChipRouter(grid).route(netlist, engine);
  EXPECT_TRUE(result.success) << "overflow " << result.overflow << " failed "
                              << result.failed;
  expect_consistent(result, netlist);
  EXPECT_GT(result.wirelength, 0.0);
  EXPECT_GE(result.iterations_run, 1);
}

// --- the RL engine's per-net Steiner-point memo ----------------------------

rl::SelectorConfig small_selector_config(std::uint64_t seed) {
  rl::SelectorConfig cfg;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = seed;
  return cfg;
}

/// A 16x16x4 chip at the oarbench chip density (dim * dim * m / 10
/// obstacles) with 10 nets of 2-5 pins.
struct MemoChip {
  HananGrid grid;
  Netlist netlist;
};

MemoChip memo_chip(std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = spec.v = 16;
  spec.m = 4;
  spec.min_obstacles = spec.max_obstacles = 16 * 16 * 4 / 10;
  MemoChip c{gen::random_grid(spec, rng), {}};
  c.grid.clear_pins();
  gen::RandomNetlistSpec ns;
  ns.min_pins = 2;
  ns.max_pins = 5;
  c.netlist = gen::random_netlist(c.grid, 10, rng, ns);
  return c;
}

std::int32_t total_reroutes(const ChipResult& r) {
  std::int32_t n = 0;
  for (const NetRoute& net : r.nets) n += net.reroutes;
  return n;
}

bool same_trees(const ChipResult& a, const ChipResult& b) {
  if (a.nets.size() != b.nets.size()) return false;
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    if (a.nets[i].tree.edges() != b.nets[i].tree.edges()) return false;
  }
  return true;
}

TEST(ChipRlMemo, OneSelectorForwardPerNetWithThreeOrMorePins) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  obs::Counter& fp32 =
      obs::MetricsRegistry::instance().counter("oar_nn_quant_fp32_forwards_total");
  auto selector =
      std::make_shared<rl::SteinerSelector>(small_selector_config(33));
  core::RlRouter engine(selector);
  for (const std::uint64_t seed : {4u, 7u}) {
    const MemoChip c = memo_chip(seed);
    std::uint64_t multi_pin = 0;
    for (const Net& net : c.netlist.nets) multi_pin += net.pins.size() >= 3;
    ASSERT_GT(multi_pin, 0u);

    const std::uint64_t before = fp32.value();
    const ChipResult result = ChipRouter(c.grid).route(c.netlist, engine);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(result.success);
    // Reroutes happened, yet none of them ran the network again.
    EXPECT_GT(total_reroutes(result), 0);
    EXPECT_EQ(fp32.value() - before, multi_pin);
  }
}

TEST(ChipRlMemo, ZeroBudgetSelectionRunsNoForward) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  obs::Counter& fp32 =
      obs::MetricsRegistry::instance().counter("oar_nn_quant_fp32_forwards_total");
  rl::SteinerSelector selector(small_selector_config(33));
  const HananGrid grid = memo_chip(4).grid;

  std::uint64_t before = fp32.value();
  EXPECT_TRUE(selector.select_steiner_points(grid, 0).empty());
  EXPECT_TRUE(selector.select_steiner_points(grid, -3).empty());
  EXPECT_EQ(fp32.value() - before, 0u);

  before = fp32.value();
  EXPECT_EQ(selector.select_steiner_points(grid, 2).size(), 2u);
  EXPECT_EQ(fp32.value() - before, 1u);
}

TEST(ChipRlMemo, NoMemoOutlivesItsRouteCall) {
  // Route with weights A, load weights B into the same selector, route
  // again: the second call must match a router that only ever saw B, so
  // it ran its own inference instead of reusing the first call's points.
  const MemoChip c = memo_chip(4);
  rl::SteinerSelector weights_b(small_selector_config(1234));
  auto selector =
      std::make_shared<rl::SteinerSelector>(small_selector_config(33));
  core::RlRouter engine(selector);
  ChipRouter chip_router(c.grid);

  const ChipResult with_a = chip_router.route(c.netlist, engine);
  selector->copy_weights_from(weights_b);
  const ChipResult after_copy = chip_router.route(c.netlist, engine);

  core::RlRouter fresh_b(
      std::make_shared<rl::SteinerSelector>(small_selector_config(1234)));
  const ChipResult only_b = ChipRouter(c.grid).route(c.netlist, fresh_b);

  ASSERT_TRUE(with_a.success);
  ASSERT_TRUE(only_b.success);
  // The two weight sets route this chip differently, so the check below
  // can tell a stale memo from a fresh one.
  ASSERT_FALSE(same_trees(with_a, only_b));
  EXPECT_TRUE(same_trees(after_copy, only_b));
  EXPECT_EQ(after_copy.wirelength, only_b.wirelength);
  EXPECT_EQ(total_reroutes(after_copy), total_reroutes(only_b));
}

TEST(ChipOrdering, HpwlAndCustomKeys) {
  const auto grid = open_grid(8, 8, 2);
  std::vector<Net> nets = {
      {"big", {grid.index(0, 0, 0), grid.index(7, 7, 1)}},
      {"small", {grid.index(3, 3, 0), grid.index(4, 3, 0)}},
      {"mid", {grid.index(0, 0, 0), grid.index(3, 2, 0)}},
  };
  // HPWL: small (1) < mid (5) < big (7 + 7 + 1.5).
  EXPECT_DOUBLE_EQ(net_hpwl(grid, nets[1]), 1.0);
  EXPECT_DOUBLE_EQ(net_hpwl(grid, nets[2]), 5.0);
  EXPECT_DOUBLE_EQ(net_hpwl(grid, nets[0]), 15.5);
  EXPECT_DOUBLE_EQ(net_bbox_area(grid, nets[0]), 49.0);

  const auto hpwl = order_nets(grid, nets, NetOrder::kHpwl);
  EXPECT_EQ(hpwl, (std::vector<std::size_t>{1, 2, 0}));
  const auto as_given = order_nets(grid, nets, NetOrder::kAsGiven);
  EXPECT_EQ(as_given, (std::vector<std::size_t>{0, 1, 2}));
  // Custom key overrides the enum: biggest first.
  const auto custom = order_nets(
      grid, nets, NetOrder::kHpwl,
      [](const HananGrid& g, const Net& n) { return -net_hpwl(g, n); });
  EXPECT_EQ(custom, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(ChipOrdering, PinCountBreaksTiesByHpwl) {
  const auto grid = open_grid(8, 8, 1);
  std::vector<Net> nets = {
      {"threepin",
       {grid.index(0, 0, 0), grid.index(1, 0, 0), grid.index(2, 0, 0)}},
      {"long2", {grid.index(0, 7, 0), grid.index(7, 7, 0)}},
      {"short2", {grid.index(5, 5, 0), grid.index(6, 5, 0)}},
  };
  const auto order = order_nets(grid, nets, NetOrder::kPinCount);
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 1, 0}));
}

TEST(ChipFacade, RoutesNetlistThroughCoreRouter) {
  const auto grid = open_grid(6, 6, 2);
  Netlist netlist;
  netlist.nets.push_back({"a", {grid.index(0, 0, 0), grid.index(5, 0, 0)}});
  netlist.nets.push_back({"b", {grid.index(0, 5, 0), grid.index(5, 5, 1)}});

  core::RouterOptions options;
  options.engine = "lin08";
  core::Router router(options);
  const core::ChipRouteResult result = router.route(grid, netlist);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(result.engine, "lin08");
  EXPECT_EQ(result.overflow(), 0);
  EXPECT_GT(result.wirelength(), 0.0);
  EXPECT_GT(result.total_seconds, 0.0);
  if (obs::kMetricsCompiled) {
    EXPECT_FALSE(result.obs.counters.empty());
  }
}

TEST(ChipFacade, OptionsValidateChipConfig) {
  core::RouterOptions options;
  options.engine = "lin08";
  options.chip.max_iterations = 0;
  EXPECT_THROW(core::Router{std::move(options)}, std::invalid_argument);
}

TEST(ChipObs, ScrapeExposesChipFamilies) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  const auto grid = open_grid(4, 2, 1);
  Netlist netlist;
  netlist.nets.push_back({"a", {grid.index(0, 0, 0), grid.index(3, 0, 0)}});
  netlist.nets.push_back({"b", {grid.index(1, 0, 0), grid.index(2, 0, 0)}});
  steiner::Lin08Router engine;
  const ChipResult result = ChipRouter(grid).route(netlist, engine);
  ASSERT_TRUE(result.success);

  const std::string scrape = obs::scrape_prometheus();
  for (const char* family :
       {"oar_chip_runs_total", "oar_chip_nets_routed_total",
        "oar_chip_iterations_total", "oar_chip_last_overflow",
        "oar_chip_last_wirelength", "oar_chip_nets_per_sec",
        "oar_chip_net_route_seconds", "oar_chip_iteration_overflow"}) {
    EXPECT_NE(scrape.find(family), std::string::npos) << family;
  }
  const std::string json = obs::scrape_json();
  EXPECT_NE(json.find("\"oar_chip_runs_total\""), std::string::npos);
}

TEST(ChipConfigValidate, RejectsBadKnobs) {
  ChipConfig config;
  config.edge_capacity = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.present_growth = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.history_increment = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace oar::chip
