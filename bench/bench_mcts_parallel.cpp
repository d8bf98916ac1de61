// Tree-parallel CombMcts scaling benchmark (DESIGN.md §15).
//
// Measures self-play episode throughput of CombMcts at 1, 2 and 4 workers
// against a serial baseline (a first one-worker search object, timed
// before any replica exists) on identical fixed-seed layouts, and
// cross-checks correctness:
//
//   * the virtual-loss invariant (applied == reverted) must hold for every
//     episode at every worker count,
//   * best_cost <= initial_cost on every episode.
//
// The one-worker search is pinned bitwise by tests/test_mcts_golden.cpp.
//
// All correctness checks are hard failures in both modes.  The timing gate
// — >= 2.5x episodes/sec at 4 workers vs serial on the paper's 32x32x8
// layout size — is asserted only in full mode AND on hardware with >= 4
// cores: `--smoke` (the CI lane, often a small shared runner) runs a
// reduced layout and asserts correctness only.  Results go to stdout and
// BENCH_mcts_parallel.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "rl/selector.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace oar;
using hanan::HananGrid;
using hanan::Vertex;

HananGrid make_grid(std::int32_t dim, std::int32_t m, std::int32_t pins,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = spec.v = dim;
  spec.m = m;
  spec.min_pins = spec.max_pins = pins;
  spec.min_obstacles = spec.max_obstacles = std::max(1, dim * dim * m / 40);
  return gen::random_grid(spec, rng);
}

void check_episode(const mcts::CombMctsResult& r, int workers, int episode) {
  if (r.stats.vloss_applied != r.stats.vloss_reverted) {
    std::fprintf(stderr,
                 "FATAL: vloss invariant broken (workers=%d episode=%d: "
                 "applied %lld != reverted %lld)\n",
                 workers, episode, (long long)r.stats.vloss_applied,
                 (long long)r.stats.vloss_reverted);
    std::exit(1);
  }
  if (std::isfinite(r.initial_cost) && r.best_cost > r.initial_cost + 1e-9) {
    std::fprintf(stderr,
                 "FATAL: best_cost above initial_cost (workers=%d episode=%d)\n",
                 workers, episode);
    std::exit(1);
  }
}

struct WorkerRun {
  int workers = 0;  // 0 = the serial baseline
  double eps = 0.0;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int dim = smoke ? 8 : 32;
  const int layers = smoke ? 2 : 8;
  const int pins = smoke ? 5 : 6;
  const int episodes = smoke ? 2 : 4;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("bench_mcts_parallel: %dx%dx%d, %d episodes per config, %u "
              "hardware threads%s\n",
              dim, dim, layers, episodes, hw, smoke ? " (smoke)" : "");

  mcts::CombMctsConfig cfg;
  cfg.iterations_per_move = smoke ? 16 : 48;
  cfg.max_children = 8;

  std::vector<HananGrid> grids;
  for (int e = 0; e < episodes; ++e) {
    grids.push_back(make_grid(dim, layers, pins, 0x5eed + std::uint64_t(e)));
  }

  rl::SteinerSelector selector;  // default UNet: base 8, depth 2
  selector.net().set_training(false);

  // --- throughput: serial, then 1/2/4 workers on the same layouts ---
  std::vector<WorkerRun> runs;
  {
    WorkerRun run;
    run.workers = 0;
    mcts::CombMcts search(selector, cfg);
    util::Timer timer;
    for (int e = 0; e < episodes; ++e) {
      const mcts::CombMctsResult r = search.run(grids[std::size_t(e)]);
      check_episode(r, 0, e);
    }
    run.seconds = timer.seconds();
    run.eps = double(episodes) / std::max(run.seconds, 1e-12);
    runs.push_back(run);
    std::printf("  serial   : %6.3f episodes/s\n", run.eps);
  }
  for (const int workers : {1, 2, 4}) {
    WorkerRun run;
    run.workers = workers;
    mcts::CombMctsConfig wcfg = cfg;
    wcfg.search_workers = workers;
    mcts::CombMcts search(selector, wcfg);
    util::Timer timer;
    for (int e = 0; e < episodes; ++e) {
      const mcts::CombMctsResult r = search.run(grids[std::size_t(e)]);
      check_episode(r, workers, e);
    }
    run.seconds = timer.seconds();
    run.eps = double(episodes) / std::max(run.seconds, 1e-12);
    runs.push_back(run);
    std::printf("  %dworker%s : %6.3f episodes/s (%.2fx vs serial)\n", workers,
                workers == 1 ? " " : "s", run.eps,
                run.eps / std::max(runs[0].eps, 1e-12));
  }

  const double speedup4 = runs.back().eps / std::max(runs[0].eps, 1e-12);
  const bool gate_enforced = !smoke && hw >= 4;
  if (gate_enforced && speedup4 < 2.5) {
    std::fprintf(stderr,
                 "FATAL: 4-worker speedup %.2fx below the 2.5x gate "
                 "(%u hardware threads)\n",
                 speedup4, hw);
    return 1;
  }
  if (!gate_enforced) {
    std::printf("  timing gate not enforced (%s)\n",
                smoke ? "smoke mode" : "fewer than 4 hardware threads");
  }

  if (std::FILE* f = std::fopen("BENCH_mcts_parallel.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"grid\": {\"h\": %d, \"v\": %d, \"m\": %d, \"pins\": %d},\n"
                 "  \"episodes_per_config\": %d,\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"serial_eps\": %.4f,\n"
                 "  \"workers\": [\n",
                 dim, dim, layers, pins, episodes, hw, runs[0].eps);
    for (std::size_t i = 1; i < runs.size(); ++i) {
      std::fprintf(f,
                   "    {\"workers\": %d, \"eps\": %.4f, \"speedup\": %.3f}%s\n",
                   runs[i].workers, runs[i].eps,
                   runs[i].eps / std::max(runs[0].eps, 1e-12),
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"speedup_4w\": %.3f,\n"
                 "  \"gate\": {\"threshold\": 2.5, \"enforced\": %s},\n"
                 "  %s,\n"
                 "  \"smoke\": %s\n"
                 "}\n",
                 speedup4, gate_enforced ? "true" : "false",
                 bench::machine_json().c_str(), smoke ? "true" : "false");
    std::fclose(f);
    std::printf("  wrote BENCH_mcts_parallel.json\n");
  }
  return 0;
}
