// search: one closed-loop caller routing seeded 32x32x8 layouts with 4-8
// pins through core::Router{engine = "rl-mcts"} — tree-parallel search at
// three workers (with the EvalServer drain thread, four threads), fp32,
// a fixed iterations_per_move and no deadline.

#include <algorithm>
#include <cmath>

#include "core/pretrained.hpp"
#include "core/router.hpp"
#include "gen/random_layout.hpp"
#include "mcts/actor_critic.hpp"
#include "mcts/parallel.hpp"
#include "rl/trainer.hpp"
#include "route/oarmst.hpp"
#include "steiner/router_base.hpp"
#include "workload.hpp"

namespace oarbench {
namespace {

using namespace oar;
using GridPtr = std::shared_ptr<const hanan::HananGrid>;

constexpr int kSearchWorkers = 3;
// Paper's alpha at the 16x16x4 reference size; the router rescales it to
// each layout (mcts::scaled_iterations).
constexpr int kIterationsPerMove = 8;
constexpr int kWarmupNets = 2;

mcts::CombMctsConfig search_config(int workers) {
  mcts::CombMctsConfig cfg;
  cfg.search_workers = workers;
  cfg.iterations_per_move = kIterationsPerMove;
  return cfg;
}

/// Pin counts cycle through shuffled blocks of 4..8.
std::vector<GridPtr> make_layouts(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<int> pins;
  std::vector<GridPtr> out;
  while (out.size() < n) {
    if (pins.empty()) {
      pins = {4, 5, 6, 7, 8};
      rng.shuffle(pins);
    }
    const int p = pins.back();
    pins.pop_back();
    out.push_back(std::make_shared<const hanan::HananGrid>(
        gen::random_grid(rl::training_spec({32, 32, 8}, 0.10, p, p), rng)));
  }
  return out;
}

class SearchWorkload final : public Workload {
 public:
  SearchWorkload(std::uint64_t seed, double seconds, Scale scale,
                 SelectorSource source, std::string out_dir)
      : seed_(seed), seconds_(seconds), scale_(scale), source_(std::move(source)),
        out_dir_(std::move(out_dir)) {}

  std::string name() const override { return "search"; }
  // The caller runs worker 0; two more workers and the EvalServer drain.
  int threads() const override { return kSearchWorkers + 1; }

  void setup() override {
    auto selector = source_();
    digest_ = weights_digest(*selector);
    model_path_ = publish_selector(*selector, out_dir_);
    // Enough layouts that the time limit, not the input list, ends the run.
    const std::size_t n = scale_ == Scale::kFull    ? std::size_t(seconds_ * 32.0) + 8
                          : scale_ == Scale::kSlice ? 6
                                                    : 2;
    layouts_ = make_layouts(stream_seed(seed_, 0x5ea4c), n);

    core::RouterOptions options;
    options.engine = "rl-mcts";
    options.mcts = search_config(kSearchWorkers);
    options.collect_obs = false;
    router_ = std::make_unique<core::Router>(options);
    // Warm-up on a disjoint stream; the first call loads the model.
    for (const GridPtr& g : make_layouts(stream_seed(seed_, 0x3a5ea), kWarmupNets)) {
      router_->route(g);
    }
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const GridPtr& g : layouts_) d.grid(*g);
    return d.value();
  }

  PhaseOut run(double seconds, ThreadWatch& watch) override;
  void replay(std::vector<Metric>& out) override;

 private:
  std::uint64_t seed_;
  double seconds_;
  Scale scale_;
  SelectorSource source_;
  std::string out_dir_;
  std::uint64_t digest_ = 0;
  std::string model_path_;
  std::vector<GridPtr> layouts_;
  std::unique_ptr<core::Router> router_;
  std::vector<route::OarmstResult> results_;
};

PhaseOut SearchWorkload::run(double seconds, ThreadWatch& watch) {
  PhaseOut out;
  RegistryDelta delta;
  const bool count_bounded = scale_ != Scale::kFull;
  watch.start();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < layouts_.size(); ++i) {
    if (!count_bounded && seconds_since(t0) >= seconds) break;
    Span span("search.route", i);
    const Clock::time_point s = Clock::now();
    core::RouteResult r = router_->route(layouts_[i]);
    out.lat_ms.push_back(seconds_since(s) * 1e3);
    results_.push_back(std::move(r.result));
  }
  watch.stop();
  out.phase_s = seconds_since(t0);
  delta.finish();

  const std::size_t n = results_.size();
  std::vector<double> mst(n, 0.0);
  std::vector<std::string> problem(n);
  parallel_indices(n, kThreadBudget, [&](std::size_t i) {
    const route::OarmstResult& r = results_[i];
    const hanan::HananGrid& grid = *layouts_[i];
    if (!r.connected || !std::isfinite(r.cost)) {
      problem[i] = "not connected";
    } else if (std::string bad = r.tree.validate(grid.pins()); !bad.empty()) {
      problem[i] = "invalid tree: " + bad;
    } else {
      mst[i] = steiner::mst_cost(grid);
    }
  });
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!problem[i].empty()) {
      if (out.check_failures.size() < 8)
        out.check_failures.push_back("search net " + std::to_string(i) + ": " + problem[i]);
      continue;
    }
    ++out.ok;
    ratio_sum += results_[i].cost / mst[i];
  }
  out.attempted = std::int64_t(n);
  out.work_units = double(out.ok);
  out.quality = out.ok > 0 ? ratio_sum / double(out.ok) : 0.0;

  const double ops = double(std::max<std::size_t>(1, n));
  const double fc_hits = delta.counter("oar_nn_feature_cache_hits_total");
  const double fc_rebuilds = delta.counter("oar_nn_feature_cache_rebuilds_total");
  out.layer = {
      {"mcts.iterations_per_op", delta.counter("oar_mcts_iterations_total") / ops, "count"},
      {"mcts.expansions_per_op", delta.counter("oar_mcts_expansions_total") / ops, "count"},
      // A leaf's fsp comes from ActorCritic::fsp_into (one worker) or an
      // EvalServer request (tree-parallel); count both.
      {"mcts.fsp_calls_per_op",
       (delta.counter("oar_mcts_fsp_calls_total") +
        delta.counter("oar_mcts_eval_requests_total")) / ops,
       "count"},
      {"mcts.critic_calls_per_op", delta.counter("oar_mcts_critic_calls_total") / ops, "count"},
      {"mcts.exact_cost_calls_per_op", delta.counter("oar_mcts_exact_cost_calls_total") / ops,
       "count"},
      {"mcts.eval_waits_per_op", delta.counter("oar_mcts_eval_waits_total") / ops, "count"},
      {"mcts.eval_batch_occupancy", delta.hist_mean("oar_mcts_eval_batch_occupancy"), "count"},
      {"route.maze_epochs_per_op", delta.counter("oar_route_maze_epochs_total") / ops, "count"},
      {"route.heap_pushes_per_op", delta.counter("oar_route_maze_heap_pushes_total") / ops,
       "count"},
      {"route.oarmst_builds_per_op", delta.counter("oar_route_oarmst_builds_total") / ops,
       "count"},
      {"nn.feature_cache_hit_frac",
       fc_hits + fc_rebuilds > 0.0 ? fc_hits / (fc_hits + fc_rebuilds) : 0.0, "frac"},
      {"nn.arena_grow_per_op", delta.counter("oar_nn_arena_grow_events_total") / ops, "count"},
  };
  out.prov.str("loop", "closed, 1 caller");
  out.prov.integer("search_workers", kSearchWorkers);
  out.prov.integer("iterations_per_move", kIterationsPerMove);
  out.prov.str("precision", "fp32");
  out.prov.str("selector_weights_fnv1a64", hex64(digest_));
  out.prov.integer("nets", std::int64_t(n));
  return out;
}

void SearchWorkload::replay(std::vector<Metric>& out) {
  // The same weights the router loaded, read back from the same file.
  std::shared_ptr<rl::SteinerSelector> selector = core::load_pretrained(model_path_);
  if (!selector || weights_digest(*selector) != digest_) {
    throw std::runtime_error("search replay: model file does not match the run's selector");
  }
  const std::size_t m = std::min<std::size_t>(layouts_.size(), scale_ == Scale::kTiny ? 1 : 3);
  std::vector<double> run3, run1, final_build, critic;
  for (std::size_t i = 0; i < m; ++i) {
    const hanan::HananGrid& grid = *layouts_[i];
    for (const int workers : {kSearchWorkers, 1}) {
      mcts::CombMctsConfig cfg = search_config(workers);
      cfg.iterations_per_move = mcts::scaled_iterations(kIterationsPerMove, grid);
      mcts::ParallelCombMcts search(*selector, cfg);
      Span episode(workers == 1 ? "mcts.run.k1" : "mcts.run", i);
      const Clock::time_point s = Clock::now();
      const mcts::CombMctsResult res = search.run(grid);
      (workers == 1 ? run1 : run3).push_back(seconds_since(s) * 1e3);
      if (workers != 1) {
        route::OarmstRouter router(grid);
        Span build("core.final_build", i, episode.index());
        const Clock::time_point b = Clock::now();
        router.build(grid.pins(), res.selected);
        final_build.push_back(seconds_since(b) * 1e3);
      }
    }
    std::vector<double> fsp = selector->infer_fsp(grid);
    mcts::ActorCritic ac(*selector, grid);
    const auto budget = std::int32_t(grid.pins().size()) - 2;
    critic.push_back(time_median_ms(scale_ == Scale::kTiny ? 2 : 5, [&] {
      Span span("route.critic", i);
      ac.critic_cost({}, budget, fsp);
    }));
  }
  out.push_back({"mcts.run_ms", median(run3), "ms"});
  out.push_back({"mcts.run_ms.k1", median(run1), "ms"});
  out.push_back({"core.final_build_ms", median(final_build), "ms"});
  out.push_back({"route.critic_ms", median(critic), "ms"});
}

}  // namespace

std::unique_ptr<Workload> make_search(std::uint64_t seed, double seconds,
                                      Scale scale, SelectorSource source,
                                      std::string out_dir) {
  return std::make_unique<SearchWorkload>(seed, seconds, scale, std::move(source),
                                          std::move(out_dir));
}

}  // namespace oarbench
