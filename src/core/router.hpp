#pragma once

// core::Router — the unified routing facade.
//
// The repository grew three entry points with different shapes:
//
//   * core::RlRouter / the RouterRegistry baselines: construct, then
//     route(const HananGrid&) synchronously,
//   * serve::RouterService: submit(shared_ptr<const HananGrid>) through the
//     EDF admission queue + symmetry cache,
//   * geometric callers: build a HananGrid from a geom::Layout by hand
//     before either of the above.
//
// This facade folds them behind one call:
//
//   core::Router router({.engine = "rl-ours"});
//   core::RouteResult r = router.route(layout, net);
//   // r.result.tree, r.result.cost, r.obs (metrics snapshot)
//
// RouterOptions selects the engine by registry name ("lin08", "liu14",
// "lin18", "oracle", "rl-ours", ...) and, for the RL engine, whether calls
// go through serve::RouterService (worker threads + result cache) or the
// direct single-shot RlRouter path.  Engines are constructed lazily on the
// first route() and reused across calls, so the facade is as cheap per call
// as the entry point it wraps.  The old entry points remain supported as
// the thin layers the facade dispatches to.
//
// Every RouteResult carries a point-in-time obs::Snapshot of the global
// metrics registry (disable with collect_obs = false), so callers get the
// cache hit rates / router epoch counts / latency histograms of the call
// they just made without touching obs:: directly.
//
// A Router instance is NOT thread safe; share a serve::RouterService (or
// give each thread its own facade) for concurrent routing.

#include <memory>
#include <string>
#include <vector>

#include "chip/chip_router.hpp"
#include "chip/netlist.hpp"
#include "core/rl_router.hpp"
#include "experience/store.hpp"
#include "mcts/comb_mcts.hpp"
#include "geom/layout.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "steiner/router_base.hpp"

namespace oar::core {

/// A named net: the pins one route() call connects.
struct Net {
  std::string name;
  std::vector<hanan::Vertex> pins;
};

struct RouterOptions {
  /// Engine by RouterRegistry name.  "rl-ours" uses the bundled pretrained
  /// selector (quick-trained when the checkpoint is absent) and honors `rl`.
  std::string engine = "rl-ours";
  /// RL-engine knobs (prefix sweep); ignored by baseline engines.
  RlRouterConfig rl;
  /// Search-engine knobs for "rl-mcts" (iterations, search_workers for
  /// the tree-parallel search, warm start); ignored by every other engine.
  mcts::CombMctsConfig mcts;
  /// Route through serve::RouterService (worker threads + symmetry cache)
  /// instead of the direct single-shot path.  RL engine only.
  bool use_service = false;
  serve::RouterServiceConfig service;
  /// Persistent experience file (experience::Store disk tier) shared
  /// across the facade's paths.  The serving path uses it to back the
  /// symmetry cache, so exact hits survive process restarts; "rl-mcts"
  /// warm-starts its root from it when `mcts.warm_start` is on and appends
  /// every connected routed episode back (DESIGN.md §18).  Empty = no
  /// persistence — memory-only caching, the legacy behaviour.
  std::string experience_path;
  /// Open the experience file read-only: serve and warm-start from it,
  /// never append (e.g. sharing a golden store across replicas).
  bool experience_read_only = false;
  /// Full-chip negotiation knobs for route(grid, netlist).
  chip::ChipConfig chip;
  /// Per-call latency target in ms for single-net route(); 0 disables
  /// (DESIGN.md §16).  "rl-mcts" runs its search anytime against the
  /// deadline (best-so-far tree, deadline_hit in the result); the serving
  /// path stamps it on the request (urgency scheduling + admission
  /// control); every other engine just gets the reply flagged late.
  double deadline_ms = 0.0;
  /// Attach an obs::Snapshot of the global metrics registry to each result.
  bool collect_obs = true;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

struct RouteResult {
  /// The grid the tree is bound to (kept alive by the result).
  std::shared_ptr<const hanan::HananGrid> grid;
  route::OarmstResult result;
  /// Resolved engine name ("rl-ours+sweep" when the sweep is on, ...).
  std::string engine;
  /// True when the serving path answered from the symmetry cache.
  bool cache_hit = false;
  /// Which experience tier answered on the serving path: kMemory (LRU),
  /// kDisk (persistent file — a hit surviving a restart or deploy), or
  /// kMiss (freshly routed; always kMiss on the direct paths).
  /// cache_hit == (hit_tier != kMiss).
  experience::HitTier hit_tier = experience::HitTier::kMiss;
  /// Typed admission outcome of the serving path; always kOk on the
  /// direct paths.  An Overloaded value means result is empty.
  serve::ReplyStatus status = serve::ReplyStatus::kOk;
  /// False when the reply finished after the deadline_ms target (or was
  /// rejected at admission).
  bool deadline_met = true;
  /// True when an anytime "rl-mcts" search was truncated by the deadline
  /// (the tree is the best fully-evaluated combination so far).
  bool deadline_hit = false;
  double total_seconds = 0.0;
  /// Point-in-time metrics (empty when collect_obs is off).
  obs::Snapshot obs;

  double cost() const { return result.cost; }
  bool connected() const { return result.connected; }
};

/// Result of the full-chip entry: the chip::ChipResult plus the facade's
/// usual envelope (resolved engine name, wall time, metrics snapshot).
struct ChipRouteResult {
  chip::ChipResult result;
  std::string engine;
  double total_seconds = 0.0;
  /// Point-in-time metrics (empty when collect_obs is off).
  obs::Snapshot obs;

  bool success() const { return result.success; }
  double wirelength() const { return result.wirelength; }
  std::int64_t overflow() const { return result.overflow; }
};

class MctsRouter;

class Router {
 public:
  /// Validates `options` eagerly; engine construction is deferred to the
  /// first route() call.
  explicit Router(RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Geometric entry: builds the Hanan grid from `layout`, then adds the
  /// net's pins (vertex indices on that grid; empty = use the layout's own
  /// pins).  Throws std::invalid_argument on an out-of-range pin.
  RouteResult route(const geom::Layout& layout, const Net& net);

  /// Grid entry, pins already on the grid.  The const& overload copies the
  /// grid so the returned tree owns a stable binding.
  RouteResult route(const hanan::HananGrid& grid);
  RouteResult route(std::shared_ptr<const hanan::HananGrid> grid);

  /// Full-chip entry: negotiated rip-up & reroute of `netlist` on `grid`
  /// (chip::ChipRouter with options().chip, single-net searches through
  /// this facade's engine).  The grid must carry no pins of its own; the
  /// netlist must pass chip::Netlist::validate on it.  Always uses the
  /// direct engine path (the serving layer's symmetry cache is per single
  /// net, not per chip).
  ChipRouteResult route(const hanan::HananGrid& grid,
                        const chip::Netlist& netlist);

  const RouterOptions& options() const { return options_; }

  /// The lazily-created underlying service; nullptr until the first
  /// service-path route().  Exposed for metrics scrapes.
  serve::RouterService* service() { return service_.get(); }

  /// The lazily-opened experience store; nullptr until a route() needed it
  /// (and always when options().experience_path is empty).
  const std::shared_ptr<experience::Store>& experience() const {
    return experience_;
  }

 private:
  void ensure_engine();
  void ensure_service();
  std::shared_ptr<rl::SteinerSelector> shared_selector();
  /// Opens options_.experience_path on first use; nullptr when unset.
  std::shared_ptr<experience::Store> shared_experience();
  RouteResult finish(RouteResult out, double seconds);

  RouterOptions options_;
  std::shared_ptr<rl::SteinerSelector> selector_;
  std::shared_ptr<experience::Store> experience_;
  std::unique_ptr<steiner::Router> engine_;
  /// Typed view of engine_ when it is the "rl-mcts" MctsRouter (the only
  /// engine with an anytime deadline overload); nullptr otherwise.
  MctsRouter* mcts_engine_ = nullptr;
  std::unique_ptr<serve::RouterService> service_;
};

/// One-call convenience: route `net` on `layout` with a throwaway facade.
RouteResult route(const geom::Layout& layout, const Net& net,
                  RouterOptions options = {});

}  // namespace oar::core
