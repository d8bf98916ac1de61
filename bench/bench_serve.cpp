// Serving-layer acceptance bench: worker scaling and result-cache speedup
// over 64 random 16x16x4 layouts (the paper's training-size grids), plus
// the SLO phase (DESIGN.md §16).
//
// Three phases, each against a fresh RouterService:
//   1. one worker   — worker_threads = 1, cache off,
//   2. four workers — worker_threads = 4, cache off (each worker serves
//      whole requests on its own selector replica),
//   3. cached       — worker_threads = 1, cache on; a cold pass on a fresh
//      service against a 100%-hit rerun on a populated one, so the ratio
//      compares a hit with a miss rather than pool width.
//
// Acceptance, each on the median of alternating rounds after a warm-up:
// four workers >= 3x one worker's throughput, rerun >= 10x cold pass (a
// hit sweep takes only ~10-15 ms, so a single pair of passes is mostly
// noise).  `--smoke` shrinks the sweep and reports the ratios without
// gating the exit code on them (CI runners have too few cores).
// The final service's obs scrape lands in BENCH_serve_metrics.prom / .json
// (the artifact CI uploads — a real snapshot of every layer's metric
// families, per-stage latency histograms included).
//
// Phase 4 (SLO) has two parts, both landing in BENCH_serve_slo.json:
//   4a. quality-vs-deadline — the anytime "rl-mcts" search on 32x32x8
//       layouts (smoke: 12x12x2) across a deadline ladder: cost ratio vs
//       the unbounded search, deadline-hit rate, realized latency.  Every
//       returned tree must be connected — the anytime invariant is a hard
//       gate even in smoke.
//   4b. sustained QPS — open-loop arrivals at half the calibrated serial
//       capacity against an admission-controlled service (bounded queue,
//       reject_hopeless).  Every reply must be a valid routed tree or a
//       typed Overloaded rejection (hard gate); full mode additionally
//       gates >= 95% deadline compliance among admitted requests.

#include <algorithm>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/mcts_router.hpp"
#include "gen/random_layout.hpp"
#include "obs/export.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace oar;

std::vector<std::shared_ptr<const hanan::HananGrid>> make_layouts(
    std::size_t count) {
  gen::RandomGridSpec spec;  // defaults: 16x16x4, 3..6 pins
  util::Rng rng(20240805);
  std::vector<std::shared_ptr<const hanan::HananGrid>> grids;
  grids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    grids.push_back(
        std::make_shared<const hanan::HananGrid>(gen::random_grid(spec, rng)));
  }
  return grids;
}

double median(const std::vector<double>& v) { return util::percentile(v, 50.0); }

/// Submits every layout up front (a deep queue, as a loaded server sees) and
/// waits for all replies; returns the wall seconds for the whole sweep and
/// adds the replies answered from the cache to `*hits` when given.
double run_sweep(serve::RouterService& service,
                 const std::vector<std::shared_ptr<const hanan::HananGrid>>& grids,
                 std::size_t* hits = nullptr) {
  util::Timer timer;
  std::vector<std::future<serve::RouteReply>> replies;
  replies.reserve(grids.size());
  for (const auto& grid : grids) {
    replies.push_back(service.submit(serve::RouteRequest{grid, std::nullopt}));
  }
  for (auto& reply : replies) {
    const bool hit = reply.get().cache_hit;
    if (hits != nullptr && hit) ++*hits;
  }
  return timer.seconds();
}

std::vector<std::shared_ptr<const hanan::HananGrid>> make_slo_layouts(
    std::size_t count, bool smoke) {
  gen::RandomGridSpec spec;
  if (smoke) {
    spec.h = 12, spec.v = 12, spec.m = 2;
    spec.min_obstacles = 8, spec.max_obstacles = 16;
  } else {
    spec.h = 32, spec.v = 32, spec.m = 8;  // the acceptance size
    spec.min_obstacles = 64, spec.max_obstacles = 128;
  }
  util::Rng rng(20260809);
  std::vector<std::shared_ptr<const hanan::HananGrid>> grids;
  grids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    grids.push_back(
        std::make_shared<const hanan::HananGrid>(gen::random_grid(spec, rng)));
  }
  return grids;
}

struct AnytimePoint {
  double deadline_ms = 0.0;
  double mean_cost = 0.0;
  double cost_ratio = 1.0;  // vs the unbounded search (lower = better)
  double hit_rate = 0.0;    // fraction of runs truncated by the deadline
  double mean_elapsed_ms = 0.0;
};

struct SustainedResult {
  double qps = 0.0;
  double deadline_ms = 0.0;
  std::size_t requests = 0;
  std::size_t admitted = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_hopeless = 0;
  std::size_t deadline_met = 0;
  double compliance = 0.0;  // deadline_met / admitted
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

bool write_slo_json(const char* path, bool smoke, double unbounded_cost,
                    const std::vector<AnytimePoint>& curve,
                    const SustainedResult& sus) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"anytime\": {\n");
  std::fprintf(f, "    \"unbounded_mean_cost\": %.6f,\n", unbounded_cost);
  std::fprintf(f, "    \"curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const AnytimePoint& p = curve[i];
    std::fprintf(f,
                 "      {\"deadline_ms\": %.3f, \"mean_cost\": %.6f, "
                 "\"cost_ratio\": %.6f, \"deadline_hit_rate\": %.4f, "
                 "\"mean_elapsed_ms\": %.3f}%s\n",
                 p.deadline_ms, p.mean_cost, p.cost_ratio, p.hit_rate,
                 p.mean_elapsed_ms, i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"sustained\": {\n");
  std::fprintf(f, "    \"qps\": %.2f,\n    \"deadline_ms\": %.3f,\n",
               sus.qps, sus.deadline_ms);
  std::fprintf(f, "    \"requests\": %zu,\n    \"admitted\": %zu,\n",
               sus.requests, sus.admitted);
  std::fprintf(f,
               "    \"rejected_queue_full\": %zu,\n"
               "    \"rejected_hopeless\": %zu,\n",
               sus.rejected_queue_full, sus.rejected_hopeless);
  std::fprintf(f, "    \"deadline_met\": %zu,\n    \"compliance\": %.4f,\n",
               sus.deadline_met, sus.compliance);
  std::fprintf(f, "    \"p50_ms\": %.3f,\n    \"p99_ms\": %.3f\n", sus.p50_ms,
               sus.p99_ms);
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
  const std::size_t kLayouts = smoke ? 24 : 64;
  auto selector = bench::bench_selector();
  const auto grids = make_layouts(kLayouts);

  std::printf("bench_serve: %zu random 16x16x4 layouts%s\n\n", kLayouts,
              smoke ? " (smoke)" : "");

  // Phases 1-2: the same sweep at one and four workers, cache off so every
  // request runs the full path.  One sweep takes ~0.1 s, so the two
  // services take turns over alternating rounds (after one warm-up sweep
  // each) and the gate reads the median of the per-round ratios.
  const int kRounds = smoke ? 1 : 7;
  std::vector<double> one_s, four_s, ratios;
  {
    serve::RouterServiceConfig cfg;
    cfg.cache_capacity = 0;
    cfg.worker_threads = 1;
    serve::RouterService one(selector, cfg);
    cfg.worker_threads = 4;
    serve::RouterService four(selector, cfg);
    run_sweep(one, grids);
    run_sweep(four, grids);
    for (int r = 0; r < kRounds; ++r) {
      const bool one_first = r % 2 == 0;
      const double a = run_sweep(one_first ? one : four, grids);
      const double b = run_sweep(one_first ? four : one, grids);
      one_s.push_back(one_first ? a : b);
      four_s.push_back(one_first ? b : a);
      ratios.push_back(one_s.back() / four_s.back());
    }
  }
  const double one_seconds = median(one_s), four_seconds = median(four_s);
  const double speedup = median(ratios);
  std::printf("1 worker:              %7.3fs  %6.1f req/s  (median of %d)\n",
              one_seconds, double(kLayouts) / one_seconds, kRounds);
  std::printf("4 workers:             %7.3fs  %6.1f req/s\n", four_seconds,
              double(kLayouts) / four_seconds);
  std::printf("worker scaling: %.2fx median (rounds %.2f-%.2fx)  [%s] "
              "(need >= 3x)\n\n",
              speedup, *std::min_element(ratios.begin(), ratios.end()),
              *std::max_element(ratios.begin(), ratios.end()),
              speedup >= 3.0 ? "PASS" : "FAIL");

  // Phase 3: cache on.  A populated service reruns the sweep as all hits;
  // each cold pass runs on a fresh service, so every request misses.  The
  // two take turns over alternating rounds after one warm-up pass each.
  std::vector<double> cold_s, warm_s, cache_ratios;
  std::size_t rerun_hits = 0;
  {
    serve::RouterServiceConfig cfg;
    cfg.worker_threads = 1;
    cfg.cache_capacity = 2 * kLayouts;
    const auto cold_sweep = [&] {
      serve::RouterService fresh(selector, cfg);
      return run_sweep(fresh, grids);
    };
    serve::RouterService service(selector, cfg);
    run_sweep(service, grids);  // populates the cache
    run_sweep(service, grids);
    cold_sweep();
    for (int r = 0; r < kRounds; ++r) {
      const bool cold_first = r % 2 == 0;
      const double a =
          cold_first ? cold_sweep() : run_sweep(service, grids, &rerun_hits);
      const double b =
          cold_first ? run_sweep(service, grids, &rerun_hits) : cold_sweep();
      cold_s.push_back(cold_first ? a : b);
      warm_s.push_back(cold_first ? b : a);
      cache_ratios.push_back(cold_s.back() / warm_s.back());
    }
    if (obs::write_text_file("BENCH_serve_metrics.prom",
                             service.scrape_prometheus()) &&
        obs::write_text_file("BENCH_serve_metrics.json",
                             service.scrape_json())) {
      std::printf("obs scrape -> BENCH_serve_metrics.prom / .json\n\n");
    }
  }
  const double hit_rate = double(rerun_hits) / double(kRounds * kLayouts);
  const double cache_speedup = median(cache_ratios);
  std::printf("cache cold:            %7.3fs  (median of %d)\n", median(cold_s),
              kRounds);
  std::printf("cache rerun:           %7.3fs   rerun hit rate %.0f%%\n",
              median(warm_s), 100.0 * hit_rate);
  std::printf("cache speedup: %.1fx median (rounds %.1f-%.1fx)  [%s] "
              "(need >= 10x)\n\n",
              cache_speedup,
              *std::min_element(cache_ratios.begin(), cache_ratios.end()),
              *std::max_element(cache_ratios.begin(), cache_ratios.end()),
              cache_speedup >= 10.0 ? "PASS" : "FAIL");

  // Phase 4a: quality-vs-deadline curve of the anytime search.
  bool slo_valid = true;
  std::vector<AnytimePoint> curve;
  double unbounded_cost = 0.0;
  {
    const std::size_t kSloLayouts = smoke ? 2 : 4;
    const auto slo_grids = make_slo_layouts(kSloLayouts, smoke);
    mcts::CombMctsConfig mcfg;
    mcfg.iterations_per_move = smoke ? 8 : 24;
    core::MctsRouter router(selector, mcfg);

    util::RunningStats unbounded;
    for (const auto& g : slo_grids) {
      const route::OarmstResult res = router.route(*g);
      if (!res.connected) slo_valid = false;
      unbounded.add(res.cost);
    }
    unbounded_cost = unbounded.mean();
    std::printf("anytime %s: unbounded mean cost %.1f\n",
                smoke ? "12x12x2" : "32x32x8", unbounded_cost);

    // The smallest rung sits below the unbounded search time so the
    // deadline-hit path is exercised even on the small smoke grids.
    const std::vector<double> ladder =
        smoke ? std::vector<double>{0.2, 2.0, 10.0}
              : std::vector<double>{5.0, 10.0, 25.0, 50.0, 100.0};
    for (double dms : ladder) {
      AnytimePoint p;
      p.deadline_ms = dms;
      util::RunningStats cost, elapsed;
      int hits = 0;
      for (const auto& g : slo_grids) {
        const mcts::SearchDeadline deadline =
            mcts::SearchClock::now() +
            std::chrono::duration_cast<mcts::SearchClock::duration>(
                std::chrono::duration<double, std::milli>(dms));
        util::Timer t;
        const route::OarmstResult res = router.route(*g, deadline);
        elapsed.add(t.seconds() * 1e3);
        // The anytime invariant is a hard gate: an expired deadline must
        // still yield a valid routed tree.
        if (!res.connected) slo_valid = false;
        if (router.last_stats().deadline_hit) ++hits;
        cost.add(res.cost);
      }
      p.mean_cost = cost.mean();
      p.cost_ratio = unbounded_cost > 0.0 ? p.mean_cost / unbounded_cost : 1.0;
      p.hit_rate = double(hits) / double(kSloLayouts);
      p.mean_elapsed_ms = elapsed.mean();
      curve.push_back(p);
      std::printf(
          "  deadline %6.1fms: cost ratio %.4f  hit rate %3.0f%%  "
          "elapsed %7.1fms\n",
          p.deadline_ms, p.cost_ratio, 100.0 * p.hit_rate, p.mean_elapsed_ms);
    }
  }

  // Phase 4b: sustained open-loop QPS against admission control.
  SustainedResult sus;
  {
    // Calibrate the per-request service time at the acceptance size.
    const std::size_t kCal = smoke ? 4 : 8;
    const auto cal_grids = make_slo_layouts(kCal, smoke);
    double mean_latency = 0.0;
    {
      serve::RouterServiceConfig cfg;
      cfg.worker_threads = 1;
      cfg.cache_capacity = 0;
      serve::RouterService service(selector, cfg);
      util::Timer t;
      for (const auto& g : cal_grids) service.route(g);
      mean_latency = t.seconds() / double(kCal);
    }
    sus.deadline_ms = std::max(6.0 * mean_latency * 1e3, 10.0);
    sus.qps = 0.5 / mean_latency;  // half the serial capacity
    sus.requests = smoke ? 32 : 128;

    const auto arrival_grids = make_slo_layouts(sus.requests, smoke);
    serve::RouterServiceConfig cfg;
    cfg.cache_capacity = 0;
    cfg.slo.default_deadline_ms = sus.deadline_ms;
    cfg.slo.max_queue_depth = 32;
    cfg.slo.reject_hopeless = true;
    serve::RouterService service(selector, cfg);

    std::vector<std::future<serve::RouteReply>> futures;
    futures.reserve(sus.requests);
    const auto interval = std::chrono::duration_cast<serve::Clock::duration>(
        std::chrono::duration<double>(1.0 / sus.qps));
    auto next = serve::Clock::now();
    for (std::size_t i = 0; i < sus.requests; ++i) {
      std::this_thread::sleep_until(next);
      next += interval;
      futures.push_back(
          service.submit(serve::RouteRequest{arrival_grids[i], std::nullopt}));
    }

    std::vector<double> latencies_ms;
    latencies_ms.reserve(sus.requests);
    for (auto& fut : futures) {
      serve::RouteReply reply = fut.get();
      if (reply.overloaded()) {
        // A rejection must be typed and empty — never a half-built tree.
        if (reply.result.connected) slo_valid = false;
        if (reply.status == serve::ReplyStatus::kOverloadedQueueFull) {
          ++sus.rejected_queue_full;
        } else {
          ++sus.rejected_hopeless;
        }
        continue;
      }
      ++sus.admitted;
      // Every admitted request must come back as a valid routed tree.
      if (!reply.result.connected) slo_valid = false;
      if (reply.deadline_met) ++sus.deadline_met;
      latencies_ms.push_back(reply.total_seconds * 1e3);
    }
    sus.compliance =
        sus.admitted == 0 ? 0.0 : double(sus.deadline_met) / double(sus.admitted);
    if (!latencies_ms.empty()) {
      sus.p50_ms = util::percentile(latencies_ms, 50.0);
      sus.p99_ms = util::percentile(latencies_ms, 99.0);
    }
    std::printf(
        "\nsustained: %.1f req/s, deadline %.1fms, %zu requests -> "
        "%zu admitted, %zu rejected (queue), %zu rejected (hopeless)\n",
        sus.qps, sus.deadline_ms, sus.requests, sus.admitted,
        sus.rejected_queue_full, sus.rejected_hopeless);
    std::printf(
        "compliance %.1f%%  [%s] (need >= 95%% in full mode)   "
        "p50 %.1fms  p99 %.1fms\n",
        100.0 * sus.compliance, sus.compliance >= 0.95 ? "PASS" : "FAIL",
        sus.p50_ms, sus.p99_ms);
  }

  if (write_slo_json("BENCH_serve_slo.json", smoke, unbounded_cost, curve,
                     sus)) {
    std::printf("SLO curve -> BENCH_serve_slo.json\n");
  }
  if (!slo_valid) {
    // Hard gate in every mode: a reply was neither a valid routed tree nor
    // a typed Overloaded rejection.
    std::printf("SLO validity: FAIL\n");
    return 1;
  }
  std::printf("SLO validity: PASS (every reply valid or typed-rejected)\n");

  if (smoke) return 0;  // ratios are informational on small machines
  return (speedup >= 3.0 && cache_speedup >= 10.0 && sus.compliance >= 0.95)
             ? 0
             : 1;
}
