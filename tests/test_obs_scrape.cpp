// Integration: a live RouterService scrape must expose the serving-layer
// families (request latency and inference histograms, symmetry-cache
// hits/misses) AND the lower layers' (MazeRouter epochs) in one Prometheus
// payload — the acceptance contract of the observability subsystem.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gen/random_layout.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace oar::serve {
namespace {

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 11;
  return cfg;
}

std::shared_ptr<const HananGrid> small_grid(std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = 6;
  spec.v = 6;
  spec.m = 2;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 3;
  spec.max_obstacles = 3;
  return std::make_shared<const HananGrid>(gen::random_grid(spec, rng));
}

/// Value of a plain `name value` sample line; -1 when absent.
double sample_value(const std::string& scrape, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  std::size_t pos = scrape.rfind(needle);
  if (pos == std::string::npos) {
    if (scrape.rfind(name + " ", 0) == 0) {
      pos = 0;
    } else {
      return -1.0;
    }
  } else {
    pos += 1;
  }
  return std::stod(scrape.substr(pos + name.size() + 1));
}

TEST(ObsScrape, RouterServiceExposesAllLayers) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";

  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.worker_threads = 2;
  RouterService service(selector, cfg);

  const auto grid = small_grid(21);
  const RouteReply first = service.route(grid);
  EXPECT_FALSE(first.cache_hit);
  const RouteReply replay = service.route(grid);  // symmetry-cache hit
  EXPECT_TRUE(replay.cache_hit);
  service.route(small_grid(22));

  const std::string scrape = service.scrape_prometheus();

  // Request latency histogram, fully formed.
  EXPECT_NE(scrape.find("# TYPE oar_serve_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(scrape.find("oar_serve_request_latency_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_GE(sample_value(scrape, "oar_serve_request_latency_seconds_count"),
            3.0);

  // Per-request stage histograms: one forward and one queue wait per miss.
  EXPECT_NE(scrape.find("# TYPE oar_serve_inference_seconds histogram"),
            std::string::npos);
  EXPECT_GE(sample_value(scrape, "oar_serve_inference_seconds_count"), 2.0);
  EXPECT_NE(scrape.find("# TYPE oar_serve_queue_seconds histogram"),
            std::string::npos);
  EXPECT_GE(sample_value(scrape, "oar_serve_queue_seconds_count"), 2.0);

  // Symmetry-cache hit ratio: both counters present, at least one hit and
  // one miss from the replayed request above.
  const double hits = sample_value(scrape, "oar_serve_cache_hits_total");
  const double misses = sample_value(scrape, "oar_serve_cache_misses_total");
  ASSERT_GE(hits, 1.0);
  ASSERT_GE(misses, 2.0);
  EXPECT_GT(hits / (hits + misses), 0.0);

  // MazeRouter epoch counters from the routing layer underneath.
  EXPECT_GE(sample_value(scrape, "oar_route_maze_epochs_total"), 1.0);
  EXPECT_GE(sample_value(scrape, "oar_route_maze_heap_pushes_total"), 1.0);

  // Liveness gauges refreshed by the scrape itself.
  EXPECT_GE(sample_value(scrape, "oar_serve_cache_entries"), 1.0);

  // The JSON flavor carries the same families.
  const std::string json = service.scrape_json();
  EXPECT_NE(json.find("\"oar_serve_request_latency_seconds\""),
            std::string::npos);
  EXPECT_NE(json.find("\"oar_route_maze_epochs_total\""), std::string::npos);
}

}  // namespace
}  // namespace oar::serve
