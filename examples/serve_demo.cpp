// RouterService walkthrough: several concurrent clients stream routing
// requests (with deadlines) at one service instance.  Demonstrates the
// worker threads (each serves whole requests on its own selector replica),
// symmetry-aware cache hits (a rotated copy of a routed layout is answered
// from the cache) and a per-stage latency summary of the replies.
//
// Usage: serve_demo [clients] [requests-per-client]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/oarsmtrl.hpp"
#include "gen/random_layout.hpp"
#include "rl/augment.hpp"
#include "serve/service.hpp"
#include "util/stats.hpp"

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

  // One reply list per client thread.
  std::vector<std::vector<serve::RouteReply>> replies(
      std::size_t(std::max(clients, 0)));
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
        replies[std::size_t(c)].push_back(reply);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Stage times of the routed replies (hits skip the queue, the forward
  // and the build); end-to-end time over every reply.
  std::size_t requests = 0, hits = 0, late = 0;
  util::RunningStats queue, inference, routing, total;
  for (const auto& client : replies) {
    for (const serve::RouteReply& r : client) {
      ++requests;
      if (r.cache_hit) ++hits;
      if (!r.deadline_met) ++late;
      total.add(r.total_seconds);
      if (r.cache_hit) continue;
      queue.add(r.queue_seconds);
      inference.add(r.inference_seconds);
      routing.add(r.routing_seconds);
    }
  }
  std::printf("\n%zu requests, %zu cache hits (%.0f%%), %zu deadline misses\n",
              requests, hits,
              requests == 0 ? 0.0 : 100.0 * double(hits) / double(requests), late);
  const auto print_stage = [](const char* name, const util::RunningStats& st) {
    if (st.count() == 0) return;
    std::printf("  %-14s count %4zu  mean %7.2f ms  max %7.2f ms\n", name,
                st.count(), st.mean() * 1e3, st.max() * 1e3);
  };
  print_stage("queue_wait", queue);
  print_stage("inference", inference);
  print_stage("routing", routing);
  print_stage("total", total);
  return 0;
}
