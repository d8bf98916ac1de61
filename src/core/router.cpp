#include "core/router.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/mcts_router.hpp"
#include "core/pretrained.hpp"
#include "core/registry.hpp"
#include "util/timer.hpp"

namespace oar::core {

void RouterOptions::validate() const {
  if (engine.empty() || !RouterRegistry::instance().contains(engine)) {
    throw std::invalid_argument(
        "RouterOptions.engine must name a registered router (got '" + engine +
        "'); see RouterRegistry::names()");
  }
  if (use_service && engine != "rl-ours") {
    throw std::invalid_argument(
        "RouterOptions.use_service requires engine 'rl-ours' (got '" + engine +
        "'); the serving layer routes through the RL selector");
  }
  if (!(deadline_ms >= 0.0) || !std::isfinite(deadline_ms)) {
    throw std::invalid_argument(
        "RouterOptions.deadline_ms must be finite and non-negative (0 "
        "disables) (got " +
        std::to_string(deadline_ms) + ")");
  }
  if (experience_read_only && experience_path.empty()) {
    throw std::invalid_argument(
        "RouterOptions.experience_read_only requires experience_path to "
        "name an existing experience file");
  }
  rl.validate();
  mcts.validate();
  service.validate();
  chip.validate();
}

Router::Router(RouterOptions options) : options_(std::move(options)) {
  options_.validate();
}

Router::~Router() = default;

std::shared_ptr<rl::SteinerSelector> Router::shared_selector() {
  if (!selector_) selector_ = load_or_train_pretrained();
  return selector_;
}

std::shared_ptr<experience::Store> Router::shared_experience() {
  if (options_.experience_path.empty()) return nullptr;
  if (!experience_) {
    experience::StoreConfig sc;
    sc.memory_capacity = options_.service.cache_capacity;
    sc.path = options_.experience_path;
    sc.read_only = options_.experience_read_only;
    sc.flush_batch = options_.service.experience_flush_batch;
    experience_ = std::make_shared<experience::Store>(sc);
  }
  return experience_;
}

void Router::ensure_engine() {
  if (engine_) return;
  if (options_.engine == "rl-ours") {
    // Constructed directly (not via the registry) so options_.rl applies.
    engine_ = std::make_unique<RlRouter>(shared_selector(), options_.rl);
  } else if (options_.engine == "rl-mcts") {
    // Constructed directly so options_.mcts (iterations, search_workers,
    // warm_start) applies; the shared experience store (when configured)
    // feeds warm starts and collects episodes.
    auto mcts_router = std::make_unique<MctsRouter>(
        shared_selector(), options_.mcts, shared_experience());
    mcts_engine_ = mcts_router.get();
    engine_ = std::move(mcts_router);
  } else {
    engine_ = RouterRegistry::instance().create(options_.engine);
  }
  if (!engine_) {
    throw std::runtime_error("core::Router: registry failed to create '" +
                             options_.engine + "'");
  }
}

void Router::ensure_service() {
  if (!service_) {
    if (std::shared_ptr<experience::Store> store = shared_experience()) {
      service_ = std::make_unique<serve::RouterService>(
          shared_selector(), options_.service, std::move(store));
    } else {
      service_ = std::make_unique<serve::RouterService>(shared_selector(),
                                                        options_.service);
    }
  }
}

RouteResult Router::finish(RouteResult out, double seconds) {
  out.total_seconds = seconds;
  if (options_.collect_obs) {
    out.obs = obs::MetricsRegistry::instance().snapshot();
  }
  return out;
}

RouteResult Router::route(const geom::Layout& layout, const Net& net) {
  auto grid =
      std::make_shared<hanan::HananGrid>(hanan::HananGrid::from_layout(layout));
  for (hanan::Vertex p : net.pins) {
    if (p < 0 || p >= grid->num_vertices()) {
      throw std::invalid_argument("core::Router: net '" + net.name + "' pin " +
                                  std::to_string(p) +
                                  " is outside the layout's Hanan grid (" +
                                  std::to_string(grid->num_vertices()) +
                                  " vertices)");
    }
    grid->add_pin(p);
  }
  return route(std::shared_ptr<const hanan::HananGrid>(std::move(grid)));
}

RouteResult Router::route(const hanan::HananGrid& grid) {
  return route(std::make_shared<const hanan::HananGrid>(grid));
}

RouteResult Router::route(std::shared_ptr<const hanan::HananGrid> grid) {
  util::Timer timer;
  RouteResult out;
  out.grid = grid;

  mcts::SearchDeadline deadline;
  if (options_.deadline_ms > 0.0) {
    deadline = mcts::SearchClock::now() +
               std::chrono::duration_cast<mcts::SearchClock::duration>(
                   std::chrono::duration<double, std::milli>(
                       options_.deadline_ms));
  }

  if (options_.use_service) {
    ensure_service();
    serve::RouteReply reply =
        service_->submit(serve::RouteRequest{std::move(grid), deadline}).get();
    out.grid = std::move(reply.grid);
    out.result = std::move(reply.result);
    out.cache_hit = reply.cache_hit;
    out.hit_tier = reply.hit_tier;
    out.status = reply.status;
    out.deadline_met = reply.deadline_met;
    out.engine = "rl-ours@service";
  } else {
    ensure_engine();
    if (deadline && mcts_engine_) {
      out.result = mcts_engine_->route(*out.grid, deadline);
      out.deadline_hit = mcts_engine_->last_stats().deadline_hit;
    } else {
      out.result = engine_->route(*out.grid);
    }
    out.engine = engine_->name();
    if (deadline && mcts::SearchClock::now() > *deadline) {
      out.deadline_met = false;
    }
  }
  return finish(std::move(out), timer.seconds());
}

ChipRouteResult Router::route(const hanan::HananGrid& grid,
                              const chip::Netlist& netlist) {
  util::Timer timer;
  ensure_engine();
  chip::ChipRouter chip_router(grid, options_.chip);
  ChipRouteResult out;
  out.result = chip_router.route(netlist, *engine_);
  out.engine = engine_->name();
  out.total_seconds = timer.seconds();
  if (options_.collect_obs) {
    out.obs = obs::MetricsRegistry::instance().snapshot();
  }
  return out;
}

RouteResult route(const geom::Layout& layout, const Net& net,
                  RouterOptions options) {
  Router router(std::move(options));
  return router.route(layout, net);
}

}  // namespace oar::core
