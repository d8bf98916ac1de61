// Full-chip negotiated-routing benchmark (DESIGN.md §14): routes a random
// multi-net layout — the acceptance case, a 32x32x8 grid with 28 nets —
// through chip::ChipRouter over the lin08 engine and reports the
// negotiation trajectory (overflow per iteration), final wirelength/vias,
// and nets-per-second throughput.  A denser 32x32x8 case (dim*dim*m/10
// obstacles, 14 nets, as in oarbench's chip workload) that needs several
// negotiation iterations is then routed over the RL engine (the seeded,
// untrained pretrained-config selector at fp32) to count net routes
// against selector forwards: the per-net Steiner-point memo allows one
// forward per net with three or more pins, however often it is rerouted.
//
// Correctness cross-checks are hard failures: the loop must converge to
// zero overflow within the iteration cap, every committed tree must
// validate over its net's pins and avoid obstacle vertices, and a
// from-scratch usage recount must match the committed trees exactly.
// With metrics compiled in, a selector forward count other than the
// number of nets with three or more pins is a hard failure too.
// Results go to stdout and BENCH_chip.json.  `--smoke` runs only the
// acceptance case; the full run adds a net-ordering-heuristic sweep.
// There is deliberately no timing assertion (CI machines are too noisy).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chip/chip_router.hpp"
#include "chip/congestion.hpp"
#include "core/pretrained.hpp"
#include "core/rl_router.hpp"
#include "gen/random_layout.hpp"
#include "gen/random_netlist.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "rl/selector.hpp"
#include "steiner/lin08.hpp"
#include "util/rng.hpp"

namespace {

using namespace oar;

hanan::HananGrid make_grid(std::int32_t dim, std::int32_t m,
                           std::int32_t obstacles, util::Rng& rng) {
  gen::RandomGridSpec spec;
  spec.h = spec.v = dim;
  spec.m = m;
  spec.min_pins = spec.max_pins = 2;  // placeholder pins, cleared below
  spec.min_obstacles = spec.max_obstacles = std::max(1, obstacles);
  hanan::HananGrid grid = gen::random_grid(spec, rng);
  grid.clear_pins();  // the netlist brings the pins
  return grid;
}

/// Routes and cross-checks; any inconsistency is fatal.
chip::ChipResult route_checked(const hanan::HananGrid& grid,
                               const chip::Netlist& netlist,
                               const chip::ChipConfig& config,
                               const char* label, steiner::Router& engine) {
  chip::ChipRouter chip_router(grid, config);
  chip::ChipResult result = chip_router.route(netlist, engine);

  if (!result.success) {
    std::fprintf(stderr,
                 "FATAL [%s]: negotiation did not converge (overflow %" PRId64
                 ", %d unrouted, %d iterations)\n",
                 label, result.overflow, result.failed, result.iterations_run);
    std::exit(1);
  }
  chip::CongestionMap recount(*result.grid, config.edge_capacity);
  std::vector<const route::RouteTree*> trees;
  for (std::size_t i = 0; i < result.nets.size(); ++i) {
    const chip::NetRoute& net = result.nets[i];
    if (const std::string problem = net.tree.validate(netlist.nets[i].pins);
        !problem.empty()) {
      std::fprintf(stderr, "FATAL [%s]: net %s tree invalid: %s\n", label,
                   net.name.c_str(), problem.c_str());
      std::exit(1);
    }
    for (const hanan::Vertex v : net.tree.vertices()) {
      if (result.grid->is_blocked(v)) {
        std::fprintf(stderr, "FATAL [%s]: net %s crosses obstacle vertex %d\n",
                     label, net.name.c_str(), v);
        std::exit(1);
      }
    }
    recount.commit(net.tree);
    trees.push_back(&net.tree);
  }
  if (recount.overflow() != 0 || !recount.matches(trees)) {
    std::fprintf(stderr,
                 "FATAL [%s]: usage recount disagrees with committed trees\n",
                 label);
    std::exit(1);
  }
  return result;
}

/// Engine calls over the whole negotiation (first routes and reroutes).
std::int64_t net_routes(const chip::ChipResult& result) {
  std::int64_t routes = 0;
  for (const chip::NetRoute& net : result.nets) routes += net.reroutes;
  return routes;
}

double nets_per_sec(const chip::ChipResult& result) {
  return result.total_seconds > 0.0
             ? double(net_routes(result)) / result.total_seconds
             : 0.0;
}

const char* order_name(chip::NetOrder order) {
  switch (order) {
    case chip::NetOrder::kAsGiven: return "as-given";
    case chip::NetOrder::kHpwl: return "hpwl";
    case chip::NetOrder::kPinCount: return "pin-count";
    case chip::NetOrder::kBboxArea: return "bbox-area";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The acceptance case: 32x32x8, ~dim*dim*m/40 obstacles, 28 nets.
  const std::int32_t dim = 32, layers = 8, n_nets = 28;
  util::Rng grid_rng(17);
  const hanan::HananGrid grid =
      make_grid(dim, layers, dim * dim * layers / 40, grid_rng);

  util::Rng rng(43);
  gen::RandomNetlistSpec netlist_spec;
  netlist_spec.min_pins = 2;
  netlist_spec.max_pins = 5;
  const chip::Netlist netlist =
      gen::random_netlist(grid, n_nets, rng, netlist_spec);

  std::printf("bench_chip: %dx%dx%d grid, %d nets, %" PRId64 " pins%s\n", dim,
              dim, layers, n_nets, netlist.total_pins(),
              smoke ? " (smoke)" : "");

  chip::ChipConfig config;
  steiner::Lin08Router lin08;
  const chip::ChipResult result =
      route_checked(grid, netlist, config, "hpwl", lin08);

  std::printf("  converged      : %d iterations (cap %d)\n",
              result.iterations_run, config.max_iterations);
  std::printf("  wirelength     : %10.1f   vias %" PRId64 "\n",
              result.wirelength, result.via_count);
  std::printf("  nets/sec       : %10.1f   (%.3fs total, %" PRId64
              " net routes)\n",
              nets_per_sec(result), result.total_seconds, net_routes(result));
  std::printf("  overflow series:");
  for (const chip::IterationStats& it : result.iterations) {
    std::printf(" %" PRId64, it.overflow);
  }
  std::printf("\n");

  if (obs::kMetricsCompiled) {
    const std::string scrape = obs::scrape_prometheus();
    for (const char* family : {"oar_chip_runs_total", "oar_chip_last_overflow",
                               "oar_chip_nets_per_sec"}) {
      if (scrape.find(family) == std::string::npos) {
        std::fprintf(stderr, "FATAL: metrics scrape is missing %s\n", family);
        return 1;
      }
    }
  }

  // The RL engine on the negotiation case: one selector forward per net
  // with three or more pins (2-pin nets select nothing), none per reroute.
  util::Rng dense_rng(26);
  const hanan::HananGrid dense =
      make_grid(dim, layers, dim * dim * layers / 10, dense_rng);
  const chip::Netlist dense_netlist =
      gen::random_netlist(dense, 14, dense_rng, netlist_spec);
  obs::Counter& fp32_forwards = obs::MetricsRegistry::instance().counter(
      "oar_nn_quant_fp32_forwards_total");
  core::RlRouter rl_engine(
      std::make_shared<rl::SteinerSelector>(core::pretrained_selector_config()));
  const std::uint64_t forwards_before = fp32_forwards.value();
  const chip::ChipResult rl_result =
      route_checked(dense, dense_netlist, config, "rl-ours", rl_engine);
  const std::uint64_t selector_forwards = fp32_forwards.value() - forwards_before;
  std::int64_t multi_pin_nets = 0;
  for (const chip::Net& net : dense_netlist.nets) {
    multi_pin_nets += net.pins.size() >= 3;
  }
  std::printf("  rl-ours dense  : %d iterations, %" PRId64 " net routes, %" PRIu64
              " selector forwards (%" PRId64 " nets with >= 3 pins), "
              "%.1f nets/sec\n",
              rl_result.iterations_run, net_routes(rl_result), selector_forwards,
              multi_pin_nets, nets_per_sec(rl_result));
  if (obs::kMetricsCompiled && selector_forwards != std::uint64_t(multi_pin_nets)) {
    std::fprintf(stderr,
                 "FATAL [rl-ours]: %" PRIu64 " selector forwards for %" PRId64
                 " nets with >= 3 pins\n",
                 selector_forwards, multi_pin_nets);
    return 1;
  }

  // Full mode: how much the net ordering matters on the same problem.
  struct SweepRow {
    chip::NetOrder order;
    double wirelength;
    std::int32_t iterations;
  };
  std::vector<SweepRow> sweep;
  if (!smoke) {
    for (const chip::NetOrder order :
         {chip::NetOrder::kAsGiven, chip::NetOrder::kHpwl,
          chip::NetOrder::kPinCount, chip::NetOrder::kBboxArea}) {
      chip::ChipConfig cfg;
      cfg.order = order;
      const chip::ChipResult r =
          route_checked(grid, netlist, cfg, order_name(order), lin08);
      sweep.push_back({order, r.wirelength, r.iterations_run});
      std::printf("  order %-9s : wirelength %10.1f  iterations %d\n",
                  order_name(order), r.wirelength, r.iterations_run);
    }
  }

  if (std::FILE* f = std::fopen("BENCH_chip.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"grid\": {\"h\": %d, \"v\": %d, \"m\": %d},\n"
                 "  \"nets\": %d,\n"
                 "  \"total_pins\": %" PRId64 ",\n"
                 "  \"smoke\": %s,\n"
                 "  \"iterations\": %d,\n"
                 "  \"iteration_cap\": %d,\n"
                 "  \"overflow_per_iteration\": [",
                 dim, dim, layers, n_nets, netlist.total_pins(),
                 smoke ? "true" : "false", result.iterations_run,
                 config.max_iterations);
    for (std::size_t i = 0; i < result.iterations.size(); ++i) {
      std::fprintf(f, "%s%" PRId64, i ? ", " : "",
                   result.iterations[i].overflow);
    }
    std::fprintf(f,
                 "],\n"
                 "  \"final_overflow\": %" PRId64 ",\n"
                 "  \"wirelength\": %.3f,\n"
                 "  \"via_count\": %" PRId64 ",\n"
                 "  \"nets_per_sec\": %.3f,\n"
                 "  \"net_routes\": %" PRId64 ",\n"
                 "  \"total_seconds\": %.6f,\n"
                 "  \"rl_ours_dense\": {\"nets\": %zu, \"net_routes\": %" PRId64
                 ", \"selector_forwards\": %" PRIu64
                 ", \"nets_with_3plus_pins\": %" PRId64
                 ", \"iterations\": %d, \"wirelength\": %.3f"
                 ", \"nets_per_sec\": %.3f}",
                 result.overflow, result.wirelength, result.via_count,
                 nets_per_sec(result), net_routes(result), result.total_seconds,
                 dense_netlist.nets.size(), net_routes(rl_result),
                 selector_forwards, multi_pin_nets,
                 rl_result.iterations_run, rl_result.wirelength,
                 nets_per_sec(rl_result));
    if (!sweep.empty()) {
      std::fprintf(f, ",\n  \"ordering_sweep\": {");
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        std::fprintf(f, "%s\"%s\": {\"wirelength\": %.3f, \"iterations\": %d}",
                     i ? ", " : "", order_name(sweep[i].order),
                     sweep[i].wirelength, sweep[i].iterations);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, ",\n  %s\n}\n", bench::machine_json().c_str());
    std::fclose(f);
    std::printf("  wrote BENCH_chip.json\n");
  } else {
    std::fprintf(stderr, "WARNING: could not write BENCH_chip.json\n");
  }
  return 0;
}
