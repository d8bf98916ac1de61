// Routing-core throughput benchmark for the incremental maze-Prim router
// (DESIGN.md §10).  Replays the MCTS critic loop — many OARMST builds over
// the same grid with varying Steiner selections — and compares:
//
//   legacy:       faithful reimplementation of the pre-incremental core
//                 (fresh router arrays per build, heap + sorted-target copy
//                 per Prim iteration, hash-set tree membership, full
//                 re-flood every iteration) — the real "before" number,
//   from-scratch: today's pooled/epoch-stamped core with frontier reuse
//                 disabled (isolates the win of frontier reuse alone),
//   incremental:  frontier-continuing search through the pooled
//                 thread-local scratch (what ActorCritic now does).
//
// Every build's cost is cross-checked across all three modes; a mismatch is
// a hard failure.  Results go to stdout and BENCH_route.json.  `--smoke`
// shrinks the repetition count for CI; there is deliberately no timing
// assertion on the speedups (CI machines are too noisy for a speedup gate).
//
// A final section measures the observability tax: the incremental hot loop
// with the metrics kill-switch on vs off, the median on/off ratio of paired
// alternating rounds.  In --smoke mode an overhead above 2% is a hard
// failure (the obs subsystem's acceptance bound); pairing and the median
// make the estimate robust to scheduler noise.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "gen/random_layout.hpp"
#include "obs/metrics.hpp"
#include "route/oarmst.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace oar;

// ---------------------------------------------------------------------------
// Legacy routing core: line-for-line behavior of the pre-incremental
// implementation.  Kept here (not in src/) purely as the benchmark baseline.
// ---------------------------------------------------------------------------
namespace legacy {

using hanan::HananGrid;
using hanan::Vertex;
constexpr double kInf = route::MazeRouter::kInf;

class MazeRouter {
 public:
  explicit MazeRouter(const HananGrid& grid) : grid_(grid) {
    const auto n = std::size_t(grid.num_vertices());
    dist_.assign(n, kInf);
    parent_.assign(n, hanan::kInvalidVertex);
    epoch_.assign(n, 0);
    settled_.assign(n, 0);
  }

  Vertex run(const std::vector<Vertex>& sources,
             const std::vector<Vertex>& targets) {
    ++current_epoch_;
    using Entry = std::pair<double, Vertex>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (Vertex s : sources) {
      if (grid_.is_blocked(s)) continue;
      if (stamped(s) && dist_[std::size_t(s)] <= 0.0) continue;
      dist_[std::size_t(s)] = 0.0;
      parent_[std::size_t(s)] = s;
      epoch_[std::size_t(s)] = current_epoch_;
      heap.emplace(0.0, s);
    }
    std::vector<Vertex> sorted_targets(targets);
    std::sort(sorted_targets.begin(), sorted_targets.end());
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (!stamped(u) || d > dist_[std::size_t(u)]) continue;
      if (settled_[std::size_t(u)] == current_epoch_) continue;
      settled_[std::size_t(u)] = current_epoch_;
      if (!sorted_targets.empty() &&
          std::binary_search(sorted_targets.begin(), sorted_targets.end(), u)) {
        return u;
      }
      grid_.for_each_neighbor(u, [&](Vertex nb, double w) {
        const double nd = d + w;
        if (!stamped(nb) || nd < dist_[std::size_t(nb)]) {
          dist_[std::size_t(nb)] = nd;
          parent_[std::size_t(nb)] = u;
          epoch_[std::size_t(nb)] = current_epoch_;
          heap.emplace(nd, nb);
        }
      });
    }
    return hanan::kInvalidVertex;
  }

  double dist(Vertex v) const { return stamped(v) ? dist_[std::size_t(v)] : kInf; }

  std::vector<Vertex> path_to(Vertex v) const {
    std::vector<Vertex> path;
    for (Vertex cur = v;; cur = parent_[std::size_t(cur)]) {
      path.push_back(cur);
      if (parent_[std::size_t(cur)] == cur) break;
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

 private:
  bool stamped(Vertex v) const { return epoch_[std::size_t(v)] == current_epoch_; }

  const HananGrid& grid_;
  std::vector<double> dist_;
  std::vector<Vertex> parent_;
  std::vector<std::uint32_t> epoch_, settled_;
  std::uint32_t current_epoch_ = 0;
};

route::OarmstResult build_once(const HananGrid& grid,
                               const std::vector<Vertex>& terminals) {
  route::OarmstResult result;
  result.tree = route::RouteTree(&grid);
  result.connected = true;
  if (terminals.empty()) return result;

  MazeRouter maze(grid);
  std::vector<Vertex> tree_vertices{terminals.front()};
  std::unordered_set<Vertex> in_tree{terminals.front()};
  std::vector<Vertex> remaining(terminals.begin() + 1, terminals.end());
  remaining.erase(
      std::remove(remaining.begin(), remaining.end(), terminals.front()),
      remaining.end());

  while (!remaining.empty()) {
    const Vertex reached = maze.run(tree_vertices, remaining);
    if (reached == hanan::kInvalidVertex) {
      result.connected = false;
      break;
    }
    const std::vector<Vertex> path = maze.path_to(reached);
    result.tree.add_path(path);
    for (Vertex v : path) {
      if (in_tree.insert(v).second) tree_vertices.push_back(v);
    }
    remaining.erase(std::remove(remaining.begin(), remaining.end(), reached),
                    remaining.end());
  }
  result.cost = result.connected ? result.tree.cost() : kInf;
  return result;
}

double critic_cost(const HananGrid& grid, const std::vector<Vertex>& pins,
                   const std::vector<Vertex>& steiner_points) {
  std::unordered_set<Vertex> pin_set(pins.begin(), pins.end());
  std::vector<Vertex> steiner;
  std::unordered_set<Vertex> seen;
  for (Vertex s : steiner_points) {
    if (s < 0 || s >= grid.num_vertices()) continue;
    if (grid.is_blocked(s) || pin_set.count(s)) continue;
    if (seen.insert(s).second) steiner.push_back(s);
  }
  std::vector<Vertex> terminals(pins.begin(), pins.end());
  terminals.insert(terminals.end(), steiner.begin(), steiner.end());

  route::OarmstResult result = build_once(grid, terminals);
  result.kept_steiner = steiner;
  if (steiner.empty()) return result.cost;
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<Vertex> kept;
    for (Vertex s : result.kept_steiner) {
      if (result.tree.degree(s) >= 3) kept.push_back(s);
    }
    if (kept.size() == result.kept_steiner.size()) break;
    std::vector<Vertex> new_terminals(pins.begin(), pins.end());
    new_terminals.insert(new_terminals.end(), kept.begin(), kept.end());
    route::OarmstResult rebuilt = build_once(grid, new_terminals);
    rebuilt.kept_steiner = std::move(kept);
    result = std::move(rebuilt);
    if (result.kept_steiner.empty()) break;
  }
  return result.cost;
}

}  // namespace legacy

hanan::HananGrid make_grid(std::int32_t dim, std::int32_t m, std::int32_t pins,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = spec.v = dim;
  spec.m = m;
  spec.min_pins = spec.max_pins = pins;
  spec.min_obstacles = spec.max_obstacles = std::max(1, dim * dim * m / 40);
  return gen::random_grid(spec, rng);
}

// Steiner selections as the critic loop evaluates them.  CombMcts always
// completes a node's selection up to the full budget of |pins| - 2 points
// with top-fsp picks before routing (actor_critic.cpp / comb_mcts.cpp), so
// every critic call routes pins + budget steiner candidates.
std::vector<std::vector<hanan::Vertex>> make_selections(
    const hanan::HananGrid& grid, int count, util::Rng& rng) {
  const int budget = std::max(0, int(grid.pins().size()) - 2);
  std::vector<std::vector<hanan::Vertex>> out;
  out.reserve(std::size_t(count));
  for (int i = 0; i < count; ++i) {
    std::vector<hanan::Vertex> sel;
    const int want = budget;
    while (std::ssize(sel) < want) {
      const auto v = hanan::Vertex(rng.uniform_int(0, grid.num_vertices() - 1));
      if (!grid.is_blocked(v) && !grid.is_pin(v)) sel.push_back(v);
    }
    out.push_back(std::move(sel));
  }
  return out;
}

enum class Mode { kLegacy, kFromScratch, kIncremental };

struct Run {
  double seconds = 0.0;
  std::vector<double> costs;
};

Run run_builds(const hanan::HananGrid& grid, Mode mode,
               const std::vector<std::vector<hanan::Vertex>>& selections,
               int reps) {
  route::OarmstConfig cfg;
  cfg.incremental = mode == Mode::kIncremental;
  const route::OarmstRouter router(grid, cfg);
  Run run;
  run.costs.reserve(selections.size());
  util::Timer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < selections.size(); ++i) {
      const double cost =
          mode == Mode::kLegacy
              ? legacy::critic_cost(grid, grid.pins(), selections[i])
              : router.cost(grid.pins(), selections[i]);  // pooled scratch
      if (rep == 0) {
        run.costs.push_back(cost);
      } else if (cost != run.costs[i]) {
        std::fprintf(stderr, "FATAL: cost drift across reps (sel %zu)\n", i);
        std::exit(1);
      }
    }
  }
  run.seconds = timer.seconds();
  return run;
}

/// The metrics-overhead gate on incremental builds (see
/// bench::measure_obs_overhead).
bench::ObsOverhead measure_obs_overhead(
    const hanan::HananGrid& grid,
    const std::vector<std::vector<hanan::Vertex>>& selections, int reps) {
  run_builds(grid, Mode::kIncremental, selections, reps);  // warmup, unmeasured
  return bench::measure_obs_overhead(bench::kObsRounds, [&] {
    (void)run_builds(grid, Mode::kIncremental, selections, reps);
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::int32_t dim = 32, layers = 8, pins = 6;
  const int selections_count = smoke ? 8 : 24;
  const int reps = smoke ? 2 : 10;

  const hanan::HananGrid grid = make_grid(dim, layers, pins, /*seed=*/11);
  util::Rng rng(29);
  const auto selections = make_selections(grid, selections_count, rng);

  std::printf("bench_route: %dx%dx%d grid, %d pins, %zu selections x %d reps%s\n",
              dim, dim, layers, pins, selections.size(), reps,
              smoke ? " (smoke)" : "");

  // Warm every code path once so allocator state is comparable.
  for (const Mode m : {Mode::kLegacy, Mode::kFromScratch, Mode::kIncremental}) {
    (void)run_builds(grid, m, {selections.front()}, 1);
  }

  const Run legacy_run = run_builds(grid, Mode::kLegacy, selections, reps);
  const Run scratch_run = run_builds(grid, Mode::kFromScratch, selections, reps);
  const Run inc_run = run_builds(grid, Mode::kIncremental, selections, reps);

  // Incremental and from-scratch must agree bitwise (DESIGN.md §10).  The
  // legacy core picks equal-cost shortest paths by heap pop order rather
  // than the canonical min-parent-id tie-break, so its trees may differ in
  // shape on ties; its costs must still be within a small tolerance.
  double max_legacy_rel = 0.0;
  for (std::size_t i = 0; i < selections.size(); ++i) {
    if (scratch_run.costs[i] != inc_run.costs[i]) {
      std::fprintf(stderr, "FATAL: incremental/from-scratch mismatch (sel %zu: %f vs %f)\n",
                   i, scratch_run.costs[i], inc_run.costs[i]);
      return 1;
    }
    const double rel = std::abs(legacy_run.costs[i] - inc_run.costs[i]) /
                       std::max(legacy_run.costs[i], 1.0);
    max_legacy_rel = std::max(max_legacy_rel, rel);
    if (rel > 0.05) {
      std::fprintf(stderr, "FATAL: legacy cost diverges (sel %zu: %f vs %f)\n",
                   i, legacy_run.costs[i], inc_run.costs[i]);
      return 1;
    }
  }

  const double total_builds = double(selections.size()) * reps;
  const double legacy_bps = total_builds / std::max(legacy_run.seconds, 1e-12);
  const double scratch_bps = total_builds / std::max(scratch_run.seconds, 1e-12);
  const double inc_bps = total_builds / std::max(inc_run.seconds, 1e-12);
  const double speedup = inc_bps / std::max(legacy_bps, 1e-12);

  std::printf("  legacy core    : %10.1f builds/sec   (pre-incremental router)\n",
              legacy_bps);
  std::printf("  pooled scratch : %10.1f builds/sec   (frontier reuse off)\n",
              scratch_bps);
  std::printf("  incremental    : %10.1f builds/sec\n", inc_bps);
  std::printf("  speedup        : %10.2fx vs legacy\n", speedup);
  std::printf("  cost agreement : incremental == from-scratch bitwise; "
              "legacy within %.3f%% (tie-breaks)\n",
              100.0 * max_legacy_rel);

  const bench::ObsOverhead obs_tax = measure_obs_overhead(grid, selections, reps);
  std::printf("  obs overhead   : %10.2f%% (metrics on %0.1f vs off %0.1f "
              "builds per thread-CPU s, median of %d rounds)%s\n",
              100.0 * obs_tax.overhead, total_builds / obs_tax.on_s,
              total_builds / obs_tax.off_s, bench::kObsRounds,
              obs::kMetricsCompiled ? "" : " [compiled out]");
  if (smoke && obs::kMetricsCompiled && obs_tax.overhead > 0.02) {
    std::fprintf(stderr,
                 "FATAL: metrics overhead %.2f%% exceeds the 2%% budget\n",
                 100.0 * obs_tax.overhead);
    return 1;
  }

  if (std::FILE* f = std::fopen("BENCH_route.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"grid\": {\"h\": %d, \"v\": %d, \"m\": %d},\n"
                 "  \"pins\": %d,\n"
                 "  \"selections\": %zu,\n"
                 "  \"reps\": %d,\n"
                 "  \"smoke\": %s,\n"
                 "  \"legacy_builds_per_sec\": %.3f,\n"
                 "  \"pooled_scratch_builds_per_sec\": %.3f,\n"
                 "  \"incremental_builds_per_sec\": %.3f,\n"
                 "  \"speedup_vs_legacy\": %.4f,\n"
                 "  \"max_legacy_cost_rel_diff\": %.6f,\n"
                 "  \"obs_overhead_fraction\": %.6f,\n"
                 "  %s\n"
                 "}\n",
                 dim, dim, layers, pins, selections.size(), reps,
                 smoke ? "true" : "false", legacy_bps, scratch_bps, inc_bps,
                 speedup, max_legacy_rel, obs_tax.overhead,
                 bench::machine_json().c_str());
    std::fclose(f);
    std::printf("  wrote BENCH_route.json\n");
  } else {
    std::fprintf(stderr, "WARNING: could not write BENCH_route.json\n");
  }
  return 0;
}
