// chip: single-threaded negotiated rip-up and reroute of seeded 32x32x8
// chips through core::Router::route(grid, netlist) with engine "rl-ours".
// The router runs the default ChipConfig (PathFinder present/history
// schedule, edge capacity 1).  Fourteen nets on grids with four times
// bench_chip's obstacle count (dim*dim*m/10 rather than /40) make iteration
// 0 overflow on about three chips in five, which then negotiate on the
// biased-grid path of route/hanan.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "chip/congestion.hpp"
#include "core/router.hpp"
#include "core/rl_router.hpp"
#include "gen/random_layout.hpp"
#include "gen/random_netlist.hpp"
#include "steiner/router_base.hpp"
#include "workload.hpp"

namespace oarbench {
namespace {

using namespace oar;

constexpr int kDim = 32, kLayers = 8;
constexpr int kNets = 14;
constexpr int kObstacleDivisor = 10;  // dim*dim*m / this many obstacles
constexpr int kEdgeCapacity = 1;

struct Chip {
  hanan::HananGrid grid;
  chip::Netlist netlist;
};

/// True when no router can route `nl` on `g` at edge capacity 1 because two
/// nets must cross one bridge of the free grid (an edge whose removal splits
/// it): a pocket behind a single free edge holding pins of two nets whose
/// other pins lie outside it.
bool two_nets_share_a_bridge(const hanan::HananGrid& g, const chip::Netlist& nl) {
  using hanan::Vertex;
  const auto n = std::size_t(g.num_vertices());
  std::vector<std::vector<Vertex>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (!g.is_blocked(Vertex(v)))
      g.for_each_neighbor(Vertex(v), [&](Vertex u, double) { adj[v].push_back(u); });
  }
  // Iterative Tarjan: DFS entry time tin, end of the subtree's times tout,
  // low-link low.  Edge (parent[c], c) is a bridge when low[c] > tin[parent].
  std::vector<std::int64_t> tin(n, -1), tout(n, 0), low(n, 0);
  std::vector<Vertex> parent(n, Vertex(-1)), bridge_child;
  std::vector<std::pair<Vertex, std::size_t>> stack;
  std::int64_t timer = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (tin[root] >= 0 || adj[root].empty()) continue;
    tin[root] = low[root] = timer++;
    stack.emplace_back(Vertex(root), 0);
    while (!stack.empty()) {
      const Vertex v = stack.back().first;
      const std::size_t next = stack.back().second;
      if (next < adj[std::size_t(v)].size()) {
        ++stack.back().second;
        const Vertex u = adj[std::size_t(v)][next];
        if (tin[std::size_t(u)] < 0) {
          parent[std::size_t(u)] = v;
          tin[std::size_t(u)] = low[std::size_t(u)] = timer++;
          stack.emplace_back(u, 0);
        } else if (u != parent[std::size_t(v)]) {
          low[std::size_t(v)] = std::min(low[std::size_t(v)], tin[std::size_t(u)]);
        }
        continue;
      }
      stack.pop_back();
      tout[std::size_t(v)] = timer;
      const Vertex p = parent[std::size_t(v)];
      if (p == Vertex(-1)) continue;
      low[std::size_t(p)] = std::min(low[std::size_t(p)], low[std::size_t(v)]);
      if (low[std::size_t(v)] > tin[std::size_t(p)]) bridge_child.push_back(v);
    }
  }
  for (const Vertex c : bridge_child) {
    int crossing = 0;
    for (const chip::Net& net : nl.nets) {
      bool in = false, out = false;
      for (const Vertex p : net.pins) {
        const std::int64_t t = tin[std::size_t(p)];
        (t >= tin[std::size_t(c)] && t < tout[std::size_t(c)] ? in : out) = true;
      }
      if (in && out && ++crossing >= 2) return true;
    }
  }
  return false;
}

/// `n` seeded chips.  A chip that cannot be routed at all (see
/// two_nets_share_a_bridge) is drawn again from the same stream; `redrawn`
/// counts those.
std::vector<Chip> make_chips(std::uint64_t seed, std::size_t n, int dim, int layers,
                             int nets, std::int64_t& redrawn) {
  util::Rng rng(seed);
  std::vector<Chip> out;
  while (out.size() < n) {
    gen::RandomGridSpec spec;
    spec.h = spec.v = dim;
    spec.m = layers;
    spec.min_pins = spec.max_pins = 2;  // placeholders; the netlist brings pins
    spec.min_obstacles = spec.max_obstacles = std::max(1, dim * dim * layers / kObstacleDivisor);
    Chip c;
    c.grid = gen::random_grid(spec, rng);
    c.grid.clear_pins();
    gen::RandomNetlistSpec ns;
    ns.min_pins = 2;
    ns.max_pins = 5;
    c.netlist = gen::random_netlist(c.grid, nets, rng, ns);
    if (two_nets_share_a_bridge(c.grid, c.netlist)) {
      ++redrawn;
      continue;
    }
    out.push_back(std::move(c));
  }
  return out;
}

class ChipWorkload final : public Workload {
 public:
  ChipWorkload(std::uint64_t seed, double seconds, Scale scale, SelectorSource source,
               std::string out_dir)
      : seed_(seed), seconds_(seconds), scale_(scale), source_(std::move(source)),
        out_dir_(std::move(out_dir)) {}

  std::string name() const override { return "chip"; }
  int threads() const override { return 1; }

  void setup() override {
    auto selector = source_();
    digest_ = weights_digest(*selector);
    publish_selector(*selector, out_dir_);
    const bool tiny = scale_ == Scale::kTiny;
    const std::size_t n = scale_ == Scale::kFull    ? std::size_t(seconds_ * 8.0) + 8
                          : scale_ == Scale::kSlice ? 3
                                                    : 1;
    chips_ = make_chips(stream_seed(seed_, 0xc41b), n, tiny ? 16 : kDim,
                        tiny ? 4 : kLayers, tiny ? 10 : kNets, redrawn_);

    core::RouterOptions options;
    options.engine = "rl-ours";
    options.chip.edge_capacity = kEdgeCapacity;
    options.collect_obs = false;
    router_ = std::make_unique<core::Router>(options);
    // Warm-up on a disjoint chip; the first call loads the model.  The
    // same single net through an RlRouter on the in-memory selector must
    // give the same tree cost, which shows the router loaded these weights.
    std::int64_t warm_redrawn = 0;
    const Chip warm =
        make_chips(stream_seed(seed_, 0x3ac41b), 1, 16, 4, 6, warm_redrawn).front();
    router_->route(warm.grid, warm.netlist);
    hanan::HananGrid probe = warm.grid;
    for (const hanan::Vertex p : warm.netlist.nets.front().pins) probe.add_pin(p);
    core::RlRouter direct(selector);
    model_matches_ = router_->route(probe).cost() == direct.route(probe).cost;
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const Chip& c : chips_) {
      d.grid(c.grid);
      for (const chip::Net& net : c.netlist.nets) {
        for (const hanan::Vertex p : net.pins) d.u64(std::uint64_t(p));
        d.u64(~0ull);
      }
    }
    return d.value();
  }

  PhaseOut run(double seconds, ThreadWatch& watch) override;
  void replay(std::vector<Metric>&) override {}

 private:
  std::uint64_t seed_;
  double seconds_;
  Scale scale_;
  SelectorSource source_;
  std::string out_dir_;
  std::uint64_t digest_ = 0;
  bool model_matches_ = false;
  std::int64_t redrawn_ = 0;
  std::vector<Chip> chips_;
  std::unique_ptr<core::Router> router_;
};

/// Empty when `r` is a truthful answer for `c`: every routed tree is valid
/// and the overflow, routed count and success flag agree with a recount of
/// the committed trees.  Whether the chip converged is asked separately.
std::string check_chip(const Chip& c, const chip::ChipResult& r) {
  const auto n = std::int32_t(c.netlist.size());
  if (std::int32_t(r.nets.size()) != n || r.routed + r.failed != n) {
    return "net counts disagree with the netlist";
  }
  chip::CongestionMap recount(*r.grid, kEdgeCapacity);
  std::vector<const route::RouteTree*> trees;
  std::int32_t routed = 0;
  for (std::size_t i = 0; i < r.nets.size(); ++i) {
    if (!r.nets[i].routed) continue;
    ++routed;
    if (std::string bad = r.nets[i].tree.validate(c.netlist.nets[i].pins); !bad.empty()) {
      return "net " + r.nets[i].name + " invalid: " + bad;
    }
    recount.commit(r.nets[i].tree);
    trees.push_back(&r.nets[i].tree);
  }
  if (routed != r.routed || recount.overflow() != r.overflow || !recount.matches(trees)) {
    return "usage recount disagrees with the committed trees";
  }
  if (r.success != (r.failed == 0 && r.overflow == 0)) return "success flag disagrees";
  return {};
}

PhaseOut ChipWorkload::run(double seconds, ThreadWatch& watch) {
  PhaseOut out;
  if (!model_matches_) out.faults.push_back("chip: router did not load the run's selector");
  RegistryDelta delta;
  std::vector<chip::ChipResult> results;
  const bool count_bounded = scale_ != Scale::kFull;
  watch.start();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    if (!count_bounded && seconds_since(t0) >= seconds) break;
    Span span("chip.route", i);
    const Clock::time_point s = Clock::now();
    core::ChipRouteResult r = router_->route(chips_[i].grid, chips_[i].netlist);
    out.lat_ms.push_back(seconds_since(s) * 1e3);
    results.push_back(std::move(r.result));
  }
  watch.stop();
  out.phase_s = seconds_since(t0);
  delta.finish();

  const std::size_t n = results.size();
  std::vector<std::string> problem(n);
  std::vector<double> mst_sum(n, 0.0);
  parallel_indices(n, kThreadBudget, [&](std::size_t i) {
    problem[i] = check_chip(chips_[i], results[i]);
    if (!problem[i].empty() || !results[i].success) return;
    for (const chip::Net& net : chips_[i].netlist.nets) {
      hanan::HananGrid g = chips_[i].grid;
      for (const hanan::Vertex p : net.pins) g.add_pin(p);
      mst_sum[i] += steiner::mst_cost(g);
    }
  });
  double wl = 0.0, mst = 0.0, iterations = 0.0, reroutes = 0.0, iter0 = 0.0;
  std::string not_converged = "[";
  for (std::size_t i = 0; i < n; ++i) {
    const chip::ChipResult& r = results[i];
    iterations += r.iterations_run;
    // Net routes, reroutes included (bench_chip's nets/s): the router's
    // speed, not how hard this chip was to negotiate.
    double routes = 0.0;
    for (const chip::NetRoute& net : r.nets) routes += net.reroutes;
    reroutes += routes;
    if (!r.iterations.empty()) iter0 += double(r.iterations.front().overflow);
    if (!problem[i].empty()) {
      if (out.check_failures.size() < 8)
        out.check_failures.push_back("chip " + std::to_string(i) + ": " + problem[i]);
      continue;
    }
    if (!r.success) {
      // A truthful "overflow left after max_iterations": a failed op, not
      // a wrong answer (see NOTES.md, chip).
      not_converged += (not_converged.size() > 1 ? ", " : "") + std::to_string(i);
      continue;
    }
    ++out.ok;
    out.work_units += routes;
    wl += r.wirelength;
    mst += mst_sum[i];
  }
  out.attempted = std::int64_t(n);
  out.quality = mst > 0.0 ? wl / mst : 0.0;

  const double ops = double(std::max<std::size_t>(1, n));
  out.layer = {
      {"chip.iterations_per_op", iterations / ops, "count"},
      {"chip.reroutes_per_op", reroutes / ops, "count"},
      {"chip.iter0_overflow", iter0 / ops, "count"},
      {"chip.net_route_ms", delta.hist_mean("oar_chip_net_route_seconds") * 1e3, "ms"},
      {"route.adjacency_rebuilds_per_op",
       delta.counter("oar_route_maze_adjacency_rebuilds_total") / ops, "count"},
  };
  out.prov.str("loop", "closed, 1 caller");
  out.prov.integer("nets_per_chip", std::int64_t(chips_.front().netlist.size()));
  out.prov.integer("edge_capacity", kEdgeCapacity);
  out.prov.integer("chips", std::int64_t(n));
  out.prov.integer("unroutable_chips_redrawn_in_setup", redrawn_);
  out.prov.raw("not_converged_chips", not_converged + "]");
  out.prov.num("iterations_per_chip", iterations / ops);
  out.prov.num("iter0_overflow_per_chip", iter0 / ops);
  out.prov.str("selector_weights_fnv1a64", hex64(digest_));
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_chip(std::uint64_t seed, double seconds, Scale scale,
                                    SelectorSource source, std::string out_dir) {
  return std::make_unique<ChipWorkload>(seed, seconds, scale, std::move(source),
                                        std::move(out_dir));
}

}  // namespace oarbench
