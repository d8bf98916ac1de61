// RouterService walkthrough: several concurrent clients stream routing
// requests (with deadlines) at one service instance.  Demonstrates the
// worker threads (each serves whole requests on its own selector replica),
// symmetry-aware cache hits (a rotated copy of a routed layout is answered
// from the cache) and the per-stage metrics snapshot.
//
// Usage: serve_demo [clients] [requests-per-client]

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/oarsmtrl.hpp"
#include "gen/random_layout.hpp"
#include "rl/augment.hpp"
#include "serve/service.hpp"

int main(int argc, char** argv) {
  using namespace oar;

  const int clients = argc > 1 ? std::atoi(argv[1]) : 4;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 6;

  auto selector = core::load_or_train_pretrained(/*fallback_stages=*/2);

  // A small shared pool of layouts so clients repeat each other's work —
  // that is what the cache is for.  Half the lookups use a rotated copy to
  // show that symmetry variants hit the same entry.
  gen::RandomGridSpec spec;  // 16x16x4
  util::Rng rng(7);
  std::vector<std::shared_ptr<const hanan::HananGrid>> layouts;
  for (int i = 0; i < 8; ++i) {
    layouts.push_back(
        std::make_shared<const hanan::HananGrid>(gen::random_grid(spec, rng)));
  }
  rl::AugmentSpec quarter_turn;
  quarter_turn.rotation = 1;

  serve::RouterServiceConfig cfg;
  cfg.worker_threads = 2;
  serve::RouterService service(selector, cfg);

  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      util::Rng pick(100 + c);
      for (int r = 0; r < per_client; ++r) {
        auto grid = layouts[pick.uniform_int(0, int(layouts.size()) - 1)];
        if (pick.uniform_int(0, 1) == 1) {
          grid = std::make_shared<const hanan::HananGrid>(
              rl::transform_grid(*grid, quarter_turn));
        }
        serve::RouteRequest request;
        request.grid = grid;
        request.deadline =
            serve::Clock::now() + std::chrono::milliseconds(250);
        const serve::RouteReply reply = service.submit(std::move(request)).get();
        std::printf(
            "client %d req %d: cost %7.0f  %s%s  %5.1f ms total\n", c, r,
            reply.result.cost, reply.cache_hit ? "cache-hit " : "routed    ",
            reply.deadline_met ? "" : " DEADLINE MISSED", reply.total_seconds * 1e3);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto snap = service.metrics().snapshot();
  std::printf("\n%llu requests, %llu cache hits (%.0f%%), %llu deadline "
              "misses\n",
              (unsigned long long)snap.requests,
              (unsigned long long)snap.cache_hits, 100.0 * snap.cache_hit_rate(),
              (unsigned long long)snap.deadline_misses);
  for (int s = 0; s < serve::kNumStages; ++s) {
    const auto& st = snap.stages[std::size_t(s)];
    if (st.count == 0) continue;
    std::printf("  %-14s count %4zu  mean %7.2f ms  p90 %7.2f ms\n",
                serve::stage_name(serve::Stage(s)), st.count, st.mean_ms,
                st.p90_ms);
  }
  return 0;
}
