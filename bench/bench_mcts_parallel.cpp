// Tree-parallel CombMcts scaling benchmark (DESIGN.md §15).
//
// Measures self-play episode throughput of CombMcts at 1, 2 and 4 workers
// on identical fixed-seed layouts.  The one-worker object is the serial
// baseline: its one worker is the calling thread and it builds no replica.
// The configurations take turns in alternating rounds (each round starts
// at the next one), each running episodes for at least a fixed time per
// round, so co-tenant load hits every configuration alike; a speedup is
// the median over rounds of the per-round ratio.  Each run also
// cross-checks correctness:
//
//   * the virtual-loss invariant (applied == reverted) must hold for every
//     episode at every worker count,
//   * best_cost <= initial_cost on every episode.
//
// The one-worker search is pinned bitwise by tests/test_mcts_golden.cpp.
//
// All correctness checks are hard failures in both modes.  The timing gate
// — a median >= 2.5x episodes/sec at 4 workers vs serial on the paper's
// 32x32x8 layout size, from 7 rounds of >= 0.2 s per configuration — is
// asserted only in full mode AND on hardware with >= 4 cores: `--smoke`
// (the CI lane, often a small shared runner) runs a reduced layout and a
// few short rounds and asserts correctness only.  Results go to stdout and
// BENCH_mcts_parallel.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
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

double median(const std::vector<double>& v) { return util::percentile(v, 50.0); }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int dim = smoke ? 8 : 32;
  const int layers = smoke ? 2 : 8;
  const int pins = smoke ? 5 : 6;
  const int layouts = smoke ? 2 : 4;
  const int rounds = smoke ? 3 : 7;
  const double round_seconds = smoke ? 0.0 : 0.2;  // per config per round
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("bench_mcts_parallel: %dx%dx%d, %d layouts, %d rounds of >= "
              "%.2fs per config, %u hardware threads%s\n",
              dim, dim, layers, layouts, rounds, round_seconds, hw,
              smoke ? " (smoke)" : "");

  mcts::CombMctsConfig cfg;
  cfg.iterations_per_move = smoke ? 16 : 48;
  cfg.max_children = 8;

  std::vector<HananGrid> grids;
  for (int e = 0; e < layouts; ++e) {
    grids.push_back(make_grid(dim, layers, pins, 0x5eed + std::uint64_t(e)));
  }

  rl::SteinerSelector selector;  // default UNet: base 8, depth 2
  selector.net().set_training(false);

  // --- throughput: 1/2/4 workers in alternating rounds ---
  const std::vector<int> worker_counts = {1, 2, 4};
  const std::size_t n_cfg = worker_counts.size();
  std::vector<std::unique_ptr<mcts::CombMcts>> searches;
  for (const int workers : worker_counts) {
    mcts::CombMctsConfig wcfg = cfg;
    wcfg.search_workers = workers;
    searches.push_back(std::make_unique<mcts::CombMcts>(selector, wcfg));
  }
  std::vector<std::size_t> next_layout(n_cfg, 0);
  std::vector<std::vector<double>> eps(n_cfg);         // per round
  std::vector<std::vector<double>> speedups(n_cfg);    // per round, vs serial
  std::vector<double> total_seconds(n_cfg, 0.0);
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> round_eps(n_cfg, 0.0);
    for (std::size_t k = 0; k < n_cfg; ++k) {
      const std::size_t c = (std::size_t(r) + k) % n_cfg;
      int episodes = 0;
      util::Timer timer;
      do {
        const std::size_t e = next_layout[c]++ % grids.size();
        check_episode(searches[c]->run(grids[e]), worker_counts[c], int(e));
        ++episodes;
      } while (timer.seconds() < round_seconds);
      const double seconds = timer.seconds();
      total_seconds[c] += seconds;
      round_eps[c] = double(episodes) / std::max(seconds, 1e-12);
      eps[c].push_back(round_eps[c]);
    }
    for (std::size_t c = 0; c < n_cfg; ++c) {
      speedups[c].push_back(round_eps[c] / std::max(round_eps[0], 1e-12));
    }
  }
  for (std::size_t c = 0; c < n_cfg; ++c) {
    std::printf("  %dworker%s : %6.3f episodes/s median, %.2fx vs serial "
                "(per-round ratios %.2f-%.2fx, %.2fs timed)\n",
                worker_counts[c], worker_counts[c] == 1 ? " " : "s",
                median(eps[c]), median(speedups[c]),
                *std::min_element(speedups[c].begin(), speedups[c].end()),
                *std::max_element(speedups[c].begin(), speedups[c].end()),
                total_seconds[c]);
  }

  const double speedup4 = median(speedups.back());
  const bool gate_enforced = !smoke && hw >= 4;
  if (gate_enforced && speedup4 < 2.5) {
    std::fprintf(stderr,
                 "FATAL: 4-worker median speedup %.2fx below the 2.5x gate "
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
                 "  \"layouts\": %d,\n"
                 "  \"rounds\": %d,\n"
                 "  \"round_seconds\": %.3f,\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"serial_eps\": %.4f,\n"
                 "  \"workers\": [\n",
                 dim, dim, layers, pins, layouts, rounds, round_seconds, hw,
                 median(eps[0]));
    for (std::size_t c = 0; c < n_cfg; ++c) {
      std::fprintf(f,
                   "    {\"workers\": %d, \"eps\": %.4f, \"speedup\": %.3f, "
                   "\"seconds\": %.3f}%s\n",
                   worker_counts[c], median(eps[c]), median(speedups[c]),
                   total_seconds[c], c + 1 < n_cfg ? "," : "");
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
