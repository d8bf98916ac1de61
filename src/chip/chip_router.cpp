#include "chip/chip_router.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace oar::chip {

namespace {

// Registered once, incremented lock-free ever after (DESIGN.md §12).
struct ChipObs {
  obs::Counter& runs;
  obs::Counter& nets_routed;
  obs::Counter& ripups;
  obs::Counter& iterations;
  obs::Gauge& last_overflow;
  obs::Gauge& last_wirelength;
  obs::Gauge& last_vias;
  obs::Gauge& last_iterations;
  obs::Gauge& nets_per_sec;
  obs::Histogram& net_seconds;
  obs::Histogram& iteration_overflow;
};

ChipObs& chip_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static ChipObs o{
      reg.counter("oar_chip_runs_total", "Full-chip netlist routing runs"),
      reg.counter("oar_chip_nets_routed_total",
                  "Single-net engine invocations by the negotiation loop"),
      reg.counter("oar_chip_ripups_total",
                  "Committed nets ripped up for rerouting"),
      reg.counter("oar_chip_iterations_total",
                  "Negotiation iterations executed"),
      reg.gauge("oar_chip_last_overflow",
                "Final edge-capacity overflow of the last run (0 = legal)"),
      reg.gauge("oar_chip_last_wirelength",
                "Final committed base-cost wirelength of the last run"),
      reg.gauge("oar_chip_last_vias",
                "Final committed via-edge count of the last run"),
      reg.gauge("oar_chip_last_iterations",
                "Negotiation iterations used by the last run"),
      reg.gauge("oar_chip_nets_per_sec",
                "Net routes per second over the last run"),
      reg.histogram("oar_chip_net_route_seconds", obs::latency_buckets(),
                    "Latency of one single-net engine call"),
      reg.histogram("oar_chip_iteration_overflow", obs::pow2_buckets(20),
                    "Edge-capacity overflow after each negotiation iteration"),
  };
  return o;
}

}  // namespace

void ChipConfig::validate() const {
  util::check_field(max_iterations >= 1, "ChipConfig", "max_iterations",
                    "be >= 1", max_iterations);
  util::check_field(edge_capacity >= 1, "ChipConfig", "edge_capacity",
                    "be >= 1", edge_capacity);
  util::check_field(present_factor >= 0.0, "ChipConfig", "present_factor",
                    "be >= 0", present_factor);
  util::check_field(present_growth >= 1.0, "ChipConfig", "present_growth",
                    "be >= 1", present_growth);
  util::check_field(history_increment >= 0.0, "ChipConfig",
                    "history_increment", "be >= 0", history_increment);
}

double tree_wirelength(const HananGrid& grid, const route::RouteTree& tree) {
  double total = 0.0;
  for (const auto& e : tree.edges()) total += grid.base_cost_between(e.a, e.b);
  return total;
}

std::int32_t tree_vias(const HananGrid& grid, const route::RouteTree& tree) {
  std::int32_t vias = 0;
  for (const auto& e : tree.edges()) {
    if (edge_dir(grid, e.a, e.b) == Dir::kPosZ) ++vias;
  }
  return vias;
}

ChipRouter::ChipRouter(const HananGrid& grid, ChipConfig config)
    : template_grid_(grid), config_(std::move(config)) {
  config_.validate();
  if (!template_grid_.pins().empty()) {
    throw std::invalid_argument(
        "ChipRouter grid must not carry pins of its own (each net brings "
        "its pins; got " +
        std::to_string(template_grid_.pins().size()) + " grid pins)");
  }
}

ChipResult ChipRouter::route(const Netlist& netlist, steiner::Router& engine) {
  if (const std::string problem = netlist.validate(template_grid_);
      !problem.empty()) {
    throw std::invalid_argument(problem);
  }

  util::Timer total_timer;
  ChipObs& ob = chip_obs();
  ob.runs.inc();

  // Fresh working grid per run so earlier results stay bound to theirs.
  auto grid = std::make_shared<HananGrid>(template_grid_);
  const std::size_t n = netlist.nets.size();
  CongestionMap congestion(*grid, config_.edge_capacity);
  const std::vector<std::size_t> sequence =
      order_nets(*grid, netlist.nets, config_.order, config_.order_key);

  std::vector<route::RouteTree> trees(n);
  std::vector<char> committed(n, 0);
  // Congestion never removes edges, so reachability is static: a net that
  // fails to connect once can never connect and is not retried.
  std::vector<char> unroutable(n, 0);
  std::vector<std::int32_t> reroutes(n, 0);
  // One engine memo per net, alive for this call only: the topology and
  // each net's pins are fixed here, only the overlay changes.
  std::vector<steiner::NetMemo> memos(n);
  std::int64_t engine_calls = 0;

  ChipResult result;
  double present = config_.present_factor;

  for (std::int32_t iter = 0; iter < config_.max_iterations; ++iter) {
    util::Timer iter_timer;
    std::int32_t rerouted = 0;
    for (const std::size_t idx : sequence) {
      const Net& net = netlist.nets[idx];
      if (unroutable[idx]) continue;
      const bool contested =
          committed[idx] && congestion.tree_overflows(trees[idx]);
      const bool reroute = iter == 0 || !committed[idx] ||
                           !config_.reroute_only_overflowed || contested;
      if (!reroute) continue;

      if (committed[idx]) {
        congestion.rip_up(trees[idx]);
        committed[idx] = 0;
        ob.ripups.inc();
      }
      // Price the layout as this net would find it: everyone else's usage
      // plus accrued history.  The overlay write and the pin swap below
      // bump revision(), so the engine's maze/feature caches rebuild on
      // every net route.
      congestion.apply_to(*grid, present);
      grid->clear_pins();
      for (const Vertex p : net.pins) grid->add_pin(p);

      util::Timer net_timer;
      route::OarmstResult routed = engine.route(*grid, memos[idx]);
      ob.net_seconds.observe(net_timer.seconds());
      ob.nets_routed.inc();
      ++engine_calls;
      ++reroutes[idx];
      ++rerouted;

      if (routed.connected) {
        trees[idx] = std::move(routed.tree);
        congestion.commit(trees[idx]);
        committed[idx] = 1;
      } else {
        trees[idx] = route::RouteTree(grid.get());
        unroutable[idx] = 1;
      }
    }

    result.iterations_run = iter + 1;
    ob.iterations.inc();

    const std::int64_t overflow = congestion.overflow();
    double committed_wl = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (committed[i]) committed_wl += tree_wirelength(*grid, trees[i]);
    }
    result.iterations.push_back(IterationStats{
        iter, overflow, congestion.overflowed_edges(), rerouted, present,
        committed_wl, iter_timer.seconds()});
    ob.iteration_overflow.observe(double(overflow));

    const bool all_routed =
        std::all_of(committed.begin(), committed.end(),
                    [](char c) { return c != 0; });
    if (overflow == 0 && all_routed) break;
    // No overflow left but some net is unroutable even on the bare grid:
    // more negotiation cannot help, stop instead of burning the cap.
    if (overflow == 0 && rerouted == 0) break;

    congestion.add_history(config_.history_increment);
    present *= config_.present_growth;
  }

  // Hand back a quiescent grid: no pins, no overlay — RouteTree::cost()
  // on the final trees is then the base (physical) cost.
  grid->clear_pins();
  grid->clear_edge_cost_biases();

  result.nets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NetRoute net_route;
    net_route.name = netlist.nets[i].name;
    net_route.tree = std::move(trees[i]);
    net_route.tree.rebind_grid(grid.get());
    net_route.reroutes = reroutes[i];
    net_route.routed = committed[i] != 0;
    if (net_route.routed) {
      net_route.wirelength = tree_wirelength(*grid, net_route.tree);
      net_route.vias = tree_vias(*grid, net_route.tree);
      result.wirelength += net_route.wirelength;
      result.via_count += net_route.vias;
      ++result.routed;
    } else {
      ++result.failed;
    }
    result.nets.push_back(std::move(net_route));
  }
  result.overflow = congestion.overflow();
  result.success = result.failed == 0 && result.overflow == 0;
  result.grid = std::move(grid);
  result.total_seconds = total_timer.seconds();

  ob.last_overflow.set(double(result.overflow));
  ob.last_wirelength.set(result.wirelength);
  ob.last_vias.set(double(result.via_count));
  ob.last_iterations.set(double(result.iterations_run));
  ob.nets_per_sec.set(result.total_seconds > 0.0
                          ? double(engine_calls) / result.total_seconds
                          : 0.0);
  return result;
}

}  // namespace oar::chip
