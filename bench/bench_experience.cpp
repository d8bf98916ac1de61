// Persistent-experience acceptance bench (DESIGN.md §18).
//
// Two phases, both landing in BENCH_experience.json:
//
//   1. restart survival — a RouterService backed by an on-disk experience
//      store routes a layout sweep cold (all misses), is torn down (the
//      "deploy"), and a fresh service over the same file replays the
//      identical sweep.  Reports cold vs warm-restart episodes/sec and the
//      restart hit rate.  HARD GATE in every mode: the rerun must answer
//      100% of requests from the store (disk or promoted-memory hits).
//
//   2. warm-started search — CombMcts routes N layouts cold at a fixed
//      budget, records each episode, then replays every layout warm at the
//      SAME budget.  HARD GATE in every mode: warm best cost <= cold best
//      cost on every replayed layout (the exact-match floor makes this a
//      deterministic guarantee, not a statistical hope), and the
//      warm_start=false anchor must be bitwise identical to the cold run.
//
// `--smoke` shrinks both sweeps; the gates stay armed (they are
// correctness statements, not timing assertions).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experience/record.hpp"
#include "experience/store.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "route/oarmst.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace oar;

std::vector<std::shared_ptr<const hanan::HananGrid>> make_layouts(
    std::size_t count) {
  gen::RandomGridSpec spec;  // defaults: 16x16x4, 3..6 pins
  util::Rng rng(20260809);
  std::vector<std::shared_ptr<const hanan::HananGrid>> grids;
  grids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    grids.push_back(
        std::make_shared<const hanan::HananGrid>(gen::random_grid(spec, rng)));
  }
  return grids;
}

struct RestartResult {
  std::size_t episodes = 0;
  double cold_eps = 0.0;      // episodes/sec, empty store
  double restart_eps = 0.0;   // episodes/sec, fresh service over the file
  double restart_hit_rate = 0.0;
  std::size_t disk_records = 0;
  std::uint64_t file_bytes = 0;
};

struct WarmSearchResult {
  std::size_t layouts = 0;
  std::size_t warm_not_worse = 0;  // layouts where warm best <= cold best
  std::size_t anchor_identical = 0;
  double mean_cold_cost = 0.0;
  double mean_warm_cost = 0.0;
  double mean_improvement = 0.0;  // (cold - warm) / cold, averaged
  double cold_eps = 0.0;
  double warm_eps = 0.0;
};

bool write_json(const char* path, bool smoke, const RestartResult& rs,
                const WarmSearchResult& ws) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"restart\": {\n");
  std::fprintf(f, "    \"episodes\": %zu,\n", rs.episodes);
  std::fprintf(f, "    \"cold_episodes_per_sec\": %.2f,\n", rs.cold_eps);
  std::fprintf(f, "    \"restart_episodes_per_sec\": %.2f,\n", rs.restart_eps);
  std::fprintf(f, "    \"restart_hit_rate\": %.4f,\n", rs.restart_hit_rate);
  std::fprintf(f, "    \"disk_records\": %zu,\n", rs.disk_records);
  std::fprintf(f, "    \"file_bytes\": %llu\n",
               static_cast<unsigned long long>(rs.file_bytes));
  std::fprintf(f, "  },\n  \"warm_search\": {\n");
  std::fprintf(f, "    \"layouts\": %zu,\n", ws.layouts);
  std::fprintf(f, "    \"warm_not_worse\": %zu,\n", ws.warm_not_worse);
  std::fprintf(f, "    \"anchor_identical\": %zu,\n", ws.anchor_identical);
  std::fprintf(f, "    \"mean_cold_cost\": %.6f,\n", ws.mean_cold_cost);
  std::fprintf(f, "    \"mean_warm_cost\": %.6f,\n", ws.mean_warm_cost);
  std::fprintf(f, "    \"mean_improvement\": %.6f,\n", ws.mean_improvement);
  std::fprintf(f, "    \"cold_episodes_per_sec\": %.2f,\n", ws.cold_eps);
  std::fprintf(f, "    \"warm_episodes_per_sec\": %.2f\n", ws.warm_eps);
  std::fprintf(f, "  },\n  %s\n}\n", bench::machine_json().c_str());
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string store_path = "BENCH_experience.oarexp";
  std::remove(store_path.c_str());
  auto selector = bench::bench_selector();
  bool ok = true;

  // ---- Phase 1: serving-path restart survival ----
  RestartResult rs;
  rs.episodes = smoke ? 16 : 64;
  const auto grids = make_layouts(rs.episodes);
  std::printf("bench_experience: %zu random 16x16x4 layouts%s\n\n",
              rs.episodes, smoke ? " (smoke)" : "");
  {
    serve::RouterServiceConfig cfg;
    cfg.cache_capacity = 2 * rs.episodes;
    cfg.experience_path = store_path;
    util::Timer cold_t;
    {
      serve::RouterService service(selector, cfg);
      for (const auto& g : grids) {
        const serve::RouteReply reply = service.route(g);
        if (reply.cache_hit || !reply.result.connected) ok = false;
      }
      rs.cold_eps = double(rs.episodes) / cold_t.seconds();
      service.experience().flush();
    }  // teardown = deploy

    serve::RouterService reborn(selector, cfg);
    std::size_t hits = 0;
    util::Timer warm_t;
    for (const auto& g : grids) {
      const serve::RouteReply reply = reborn.route(g);
      if (reply.cache_hit) ++hits;
      if (!reply.result.connected) ok = false;
    }
    rs.restart_eps = double(rs.episodes) / warm_t.seconds();
    rs.restart_hit_rate = double(hits) / double(rs.episodes);
    const experience::StoreStats stats = reborn.experience().stats();
    rs.disk_records = stats.disk.records;
    rs.file_bytes = stats.disk.file_bytes;
  }
  std::printf("restart: cold %7.1f eps  ->  rerun %7.1f eps after restart\n",
              rs.cold_eps, rs.restart_eps);
  std::printf(
      "restart hit rate %.0f%%  [%s] (need 100%%)   %zu disk records, "
      "%llu bytes\n\n",
      100.0 * rs.restart_hit_rate,
      rs.restart_hit_rate >= 1.0 ? "PASS" : "FAIL", rs.disk_records,
      static_cast<unsigned long long>(rs.file_bytes));
  if (rs.restart_hit_rate < 1.0) ok = false;

  // ---- Phase 2: warm-started search at a fixed budget ----
  WarmSearchResult ws;
  ws.layouts = smoke ? 6 : 24;
  {
    gen::RandomGridSpec spec;
    spec.h = 8, spec.v = 8, spec.m = 2;
    spec.min_pins = 4, spec.max_pins = 5;
    spec.min_obstacles = 4, spec.max_obstacles = 8;
    util::Rng rng(7);
    std::vector<hanan::HananGrid> layouts;
    for (std::size_t i = 0; i < ws.layouts; ++i) {
      layouts.push_back(gen::random_grid(spec, rng));
    }

    experience::StoreConfig sc;
    sc.path = store_path + ".search";
    std::remove(sc.path.c_str());
    experience::Store store(sc);

    mcts::CombMctsConfig cfg;
    cfg.iterations_per_move = smoke ? 32 : 96;
    cfg.use_critic = false;

    util::RunningStats cold_cost, warm_cost, improvement;
    route::RouterScratch scratch;
    util::Timer cold_t;
    std::vector<mcts::CombMctsResult> cold_runs;
    for (const hanan::HananGrid& grid : layouts) {
      mcts::CombMcts cold(*selector, cfg);
      cold_runs.push_back(cold.run(grid));
    }
    ws.cold_eps = double(ws.layouts) / cold_t.seconds();

    for (std::size_t i = 0; i < layouts.size(); ++i) {
      const hanan::HananGrid& grid = layouts[i];
      const mcts::CombMctsResult& cold_res = cold_runs[i];
      cold_cost.add(cold_res.best_cost);

      // The warm_start=false anchor: a store attached but the knob off
      // must reproduce the cold search bitwise.
      mcts::CombMcts anchor(*selector, cfg, &store);
      const mcts::CombMctsResult anchor_res = anchor.run(grid);
      if (anchor_res.best_cost == cold_res.best_cost &&
          anchor_res.selected == cold_res.selected &&
          anchor_res.label == cold_res.label) {
        ++ws.anchor_identical;
      } else {
        ok = false;
      }

      // Record the cold episode, replay warm at the same budget.
      route::OarmstRouter router(grid);
      const route::OarmstResult routed =
          router.build(grid.pins(), cold_res.best_selected, &scratch);
      if (routed.connected) {
        store.put(experience::build_record(grid, routed, cold_res.label,
                                           cold_res.best_selected));
      }
    }
    store.flush();

    util::Timer warm_t;
    for (std::size_t i = 0; i < layouts.size(); ++i) {
      mcts::CombMctsConfig warm_cfg = cfg;
      warm_cfg.warm_start = true;
      mcts::CombMcts warm(*selector, warm_cfg, &store);
      const mcts::CombMctsResult warm_res = warm.run(layouts[i]);
      warm_cost.add(warm_res.best_cost);
      const double cold_best = cold_runs[i].best_cost;
      if (warm_res.best_cost <= cold_best) ++ws.warm_not_worse;
      if (cold_best > 0.0) {
        improvement.add((cold_best - warm_res.best_cost) / cold_best);
      }
    }
    ws.warm_eps = double(ws.layouts) / warm_t.seconds();
    ws.mean_cold_cost = cold_cost.mean();
    ws.mean_warm_cost = warm_cost.mean();
    ws.mean_improvement = improvement.mean();
    std::remove(sc.path.c_str());
  }
  std::printf("warm search: %zu layouts at fixed budget\n", ws.layouts);
  std::printf("  anchor (warm_start=false) bitwise identical: %zu/%zu  [%s]\n",
              ws.anchor_identical, ws.layouts,
              ws.anchor_identical == ws.layouts ? "PASS" : "FAIL");
  std::printf(
      "  warm best <= cold best: %zu/%zu  [%s]   mean cost %.1f -> %.1f "
      "(%.2f%% better)\n",
      ws.warm_not_worse, ws.layouts,
      ws.warm_not_worse == ws.layouts ? "PASS" : "FAIL", ws.mean_cold_cost,
      ws.mean_warm_cost, 100.0 * ws.mean_improvement);
  std::printf("  throughput: cold %.1f eps, warm %.1f eps\n\n", ws.cold_eps,
              ws.warm_eps);
  if (ws.warm_not_worse != ws.layouts) ok = false;

  if (write_json("BENCH_experience.json", smoke, rs, ws)) {
    std::printf("results -> BENCH_experience.json\n");
  }
  std::remove(store_path.c_str());
  std::printf("experience gates: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
