#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <future>
#include <set>
#include <thread>

#include "gen/random_layout.hpp"
#include "experience/record.hpp"
#include "obs/metrics.hpp"

namespace oar::serve {
namespace {

using experience::CanonicalForm;
using experience::canonicalize;
using experience::inverse_vertex_map;
using experience::serialize_grid;

rl::SelectorConfig tiny_config() {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 1;
  cfg.unet.seed = 11;
  return cfg;
}

HananGrid small_grid(std::uint64_t seed = 4) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = 6;
  spec.v = 6;
  spec.m = 2;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 3;
  spec.max_obstacles = 3;
  return gen::random_grid(spec, rng);
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

obs::Histogram& latency_histogram(const char* name) {
  return obs::MetricsRegistry::instance().histogram(name, obs::latency_buckets());
}

std::set<std::pair<Vertex, Vertex>> edge_set(const route::RouteTree& tree) {
  std::set<std::pair<Vertex, Vertex>> out;
  for (const route::GridEdge& e : tree.edges()) out.insert({e.a, e.b});
  return out;
}

TEST(Canonical, AllSixteenSymmetriesShareOneKey) {
  const HananGrid grid = small_grid();
  const CanonicalForm base = canonicalize(grid);
  EXPECT_TRUE(base.symmetric);
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    const HananGrid variant = rl::transform_grid(grid, spec);
    const CanonicalForm form = canonicalize(variant);
    EXPECT_EQ(form.key, base.key);
  }
}

TEST(Canonical, FastOrbitSerializationMatchesReference) {
  const HananGrid grid = small_grid();
  // Reference: serialize the fully constructed transformed grids.
  std::string expect;
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    std::string key = serialize_grid(rl::transform_grid(grid, spec));
    if (expect.empty() || key < expect) expect = std::move(key);
  }
  EXPECT_EQ(canonicalize(grid).key, expect);
}

TEST(Canonical, DistinctLayoutsGetDistinctKeys) {
  EXPECT_NE(canonicalize(small_grid(4)).key, canonicalize(small_grid(5)).key);
}

TEST(Canonical, CostBiasOverlayForcesIdentityKey) {
  // A congestion overlay (full-chip negotiation) breaks the symmetry
  // orbit: canonicalize must fall back to the identity key, and two
  // different overlay states must never alias one cache entry.
  HananGrid grid = small_grid();
  const CanonicalForm plain = canonicalize(grid);
  ASSERT_TRUE(plain.symmetric);

  grid.set_edge_cost_bias(0, hanan::Dir::kPosX, 2.5);
  const CanonicalForm biased = canonicalize(grid);
  EXPECT_FALSE(biased.symmetric);
  EXPECT_NE(biased.key, plain.key);

  grid.set_edge_cost_bias(0, hanan::Dir::kPosX, 3.5);
  EXPECT_NE(canonicalize(grid).key, biased.key);

  // Clearing the overlay restores the symmetric orbit key exactly.
  grid.clear_edge_cost_biases();
  const CanonicalForm restored = canonicalize(grid);
  EXPECT_TRUE(restored.symmetric);
  EXPECT_EQ(restored.key, plain.key);
}

TEST(Canonical, InverseVertexMapRoundTrips) {
  const HananGrid grid = small_grid();
  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    const std::vector<Vertex> inv = inverse_vertex_map(grid, spec);
    for (Vertex v = 0; v < grid.num_vertices(); ++v) {
      EXPECT_EQ(inv[std::size_t(rl::transform_vertex(grid, v, spec))], v);
    }
  }
}

TEST(RouterService, CacheHitReturnsIdenticalTree) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterService service(selector, {});
  const std::uint64_t hits = counter_value("oar_serve_cache_hits_total");

  const auto grid = std::make_shared<const HananGrid>(small_grid());
  const RouteReply cold = service.route(grid);
  ASSERT_TRUE(cold.result.connected);
  EXPECT_FALSE(cold.cache_hit);

  const RouteReply warm = service.route(grid);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.result.connected);
  EXPECT_DOUBLE_EQ(warm.result.cost, cold.result.cost);
  EXPECT_EQ(edge_set(warm.result.tree), edge_set(cold.result.tree));
  EXPECT_EQ(warm.result.kept_steiner.size(), cold.result.kept_steiner.size());

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_EQ(counter_value("oar_serve_cache_hits_total") - hits, 1u);
}

TEST(RouterService, RotatedLayoutHitsSameCacheEntry) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterService service(selector, {});

  const auto grid = std::make_shared<const HananGrid>(small_grid());
  const RouteReply cold = service.route(grid);
  ASSERT_TRUE(cold.result.connected);

  for (const rl::AugmentSpec& spec : rl::all_augmentations()) {
    const auto variant =
        std::make_shared<const HananGrid>(rl::transform_grid(*grid, spec));
    const RouteReply reply = service.route(variant);
    EXPECT_TRUE(reply.cache_hit);
    // Symmetries preserve step costs, so the replayed tree costs the same
    // and must be a valid tree over the variant's own pins.
    EXPECT_DOUBLE_EQ(reply.result.cost, cold.result.cost);
    EXPECT_EQ(reply.result.tree.validate(variant->pins()), "");
  }
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST(RouterService, ExpiredDeadlineIsFlagged) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterService service(selector, {});
  const std::uint64_t misses = counter_value("oar_serve_slo_deadline_misses_total");

  RouteRequest request;
  request.grid = std::make_shared<const HananGrid>(small_grid());
  request.deadline = Clock::now() - std::chrono::seconds(1);
  const RouteReply reply = service.submit(std::move(request)).get();
  EXPECT_TRUE(reply.result.connected);  // still routed, just late
  EXPECT_FALSE(reply.deadline_met);

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_EQ(counter_value("oar_serve_slo_deadline_misses_total") - misses, 1u);
}

TEST(RouterService, ConcurrentClientsAllComplete) {
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.worker_threads = 2;
  RouterService service(selector, cfg);
  const std::uint64_t requests = counter_value("oar_serve_requests_total");
  const std::uint64_t hits = counter_value("oar_serve_cache_hits_total");

  std::vector<std::shared_ptr<const HananGrid>> layouts;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    layouts.push_back(std::make_shared<const HananGrid>(small_grid(s)));
  }

  constexpr int kClients = 4, kPerClient = 6;
  std::atomic<int> connected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const auto& grid = layouts[std::size_t(c + r) % layouts.size()];
        const RouteReply reply =
            service.submit(RouteRequest{grid, std::nullopt}).get();
        if (reply.result.connected) connected++;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(connected.load(), kClients * kPerClient);
  // Only 3 distinct layouts exist; concurrent first touches may each miss,
  // but the steady state must be hits and at most 3 entries.
  EXPECT_LE(service.cache_size(), 3u);

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_EQ(counter_value("oar_serve_requests_total") - requests,
            std::uint64_t(kClients * kPerClient));
  EXPECT_GE(counter_value("oar_serve_cache_hits_total") - hits, 1u);
}

TEST(RouterService, RegistryStageSumsMatchReplies) {
  // Every stage of a served request is a registry histogram: over K
  // distinct misses, each histogram's count and sum deltas reproduce the
  // replies' own stage fields.
  constexpr std::uint64_t kRequests = 6;
  struct StageField {
    const char* histogram;
    double RouteReply::*seconds;
  };
  const StageField stages[] = {
      {"oar_serve_queue_seconds", &RouteReply::queue_seconds},
      {"oar_serve_inference_seconds", &RouteReply::inference_seconds},
      {"oar_serve_routing_seconds", &RouteReply::routing_seconds},
      {"oar_serve_request_latency_seconds", &RouteReply::total_seconds},
  };
  std::vector<std::uint64_t> count_before;
  std::vector<double> sum_before;
  for (const StageField& st : stages) {
    count_before.push_back(latency_histogram(st.histogram).count());
    sum_before.push_back(latency_histogram(st.histogram).sum());
  }

  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  std::vector<RouteReply> replies;
  {
    RouterService service(selector, cfg);
    std::vector<std::future<RouteReply>> futs;
    for (std::uint64_t seed = 1; seed <= kRequests; ++seed) {
      futs.push_back(service.submit(RouteRequest{
          std::make_shared<const HananGrid>(small_grid(seed)), std::nullopt}));
    }
    for (auto& f : futs) replies.push_back(f.get());
  }
  for (const RouteReply& r : replies) {
    ASSERT_EQ(r.status, ReplyStatus::kOk);
    ASSERT_FALSE(r.cache_hit);
    EXPECT_LE(r.queue_seconds + r.inference_seconds + r.routing_seconds,
              r.total_seconds);
  }

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    const obs::Histogram& h = latency_histogram(stages[i].histogram);
    double want = 0.0;
    for (const RouteReply& r : replies) want += r.*stages[i].seconds;
    EXPECT_EQ(h.count() - count_before[i], kRequests) << stages[i].histogram;
    EXPECT_NEAR(h.sum() - sum_before[i], want, 1e-9 * want)
        << stages[i].histogram;
  }
}

// ---- RouterService worker threads: one request end to end per thread ----

/// `count` layouts of two shapes and 3-6 pins.
std::vector<std::shared_ptr<const HananGrid>> mixed_layouts(std::uint64_t count = 12) {
  std::vector<std::shared_ptr<const HananGrid>> out;
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    util::Rng rng(seed);
    gen::RandomGridSpec spec;
    spec.h = spec.v = seed % 3 == 0 ? 8 : 6;
    spec.m = seed % 3 == 0 ? 3 : 2;
    spec.min_pins = 3;
    spec.max_pins = 6;
    spec.min_obstacles = 2;
    spec.max_obstacles = 4;
    out.push_back(std::make_shared<const HananGrid>(gen::random_grid(spec, rng)));
  }
  return out;
}

void expect_replies_match_direct_path(bool int8) {
  const auto layouts = mixed_layouts(24);
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  if (int8) {
    std::vector<const HananGrid*> cal;
    for (const auto& g : layouts) cal.push_back(g.get());
    selector->calibrate_int8(cal);
    ASSERT_TRUE(selector->int8_active());
  }
  // The direct path: infer_fsp -> top_k_valid -> build, plus the record
  // the service should store for it (which carries the fsp itself).
  std::vector<route::OarmstResult> want;
  std::vector<experience::KeyedRecord> want_records;
  for (const auto& g : layouts) {
    const std::vector<double> fsp = selector->infer_fsp(*g);
    const std::int32_t budget =
        std::max<std::int32_t>(0, std::int32_t(g->pins().size()) - 2);
    route::OarmstRouter router(*g);
    want.push_back(router.build(
        g->pins(), rl::SteinerSelector::top_k_valid(*g, fsp, budget, {})));
    want_records.push_back(experience::build_record(
        *g, want.back(), std::vector<float>(fsp.begin(), fsp.end()),
        want.back().kept_steiner));
  }

  for (const std::size_t workers : {1u, 2u, 4u}) {
    RouterServiceConfig cfg;
    cfg.worker_threads = workers;
    RouterService service(selector, cfg);
    // Submitted together so every worker (and replica) takes some.
    std::vector<std::future<RouteReply>> futs;
    for (const auto& g : layouts) {
      futs.push_back(service.submit(RouteRequest{g, std::nullopt}));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const RouteReply reply = futs[i].get();
      const route::OarmstResult& w = want[i];
      ASSERT_EQ(reply.status, ReplyStatus::kOk);
      ASSERT_FALSE(reply.cache_hit);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.result.cost),
                std::bit_cast<std::uint64_t>(w.cost))
          << "workers " << workers << " layout " << i;
      EXPECT_EQ(reply.result.tree.edges(), w.tree.edges())
          << "workers " << workers << " layout " << i;
      EXPECT_EQ(reply.result.kept_steiner, w.kept_steiner)
          << "workers " << workers << " layout " << i;
      const std::optional<experience::ExperienceRecord> stored =
          service.experience().get(want_records[i].key);
      ASSERT_TRUE(stored.has_value()) << "workers " << workers << " layout " << i;
      ASSERT_FALSE(want_records[i].record.fsp_base.empty());
      EXPECT_EQ(stored->fsp_base, want_records[i].record.fsp_base)
          << "workers " << workers << " layout " << i;
    }
  }
}

TEST(RouterServiceWorkers, RepliesBitwiseMatchDirectPathFp32) {
  expect_replies_match_direct_path(/*int8=*/false);
}

TEST(RouterServiceWorkers, RepliesBitwiseMatchDirectPathInt8) {
  expect_replies_match_direct_path(/*int8=*/true);
}

TEST(RouterServiceWorkers, Int8ServiceRunsOneInt8ForwardPerMiss) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  const auto layouts = mixed_layouts();
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  selector->calibrate_int8({layouts[0].get(), layouts[2].get()});
  ASSERT_TRUE(selector->int8_active());

  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& int8_fw = reg.counter("oar_nn_quant_int8_forwards_total");
  obs::Counter& fp32_fw = reg.counter("oar_nn_quant_fp32_forwards_total");
  const std::uint64_t int8_before = int8_fw.value();
  const std::uint64_t fp32_before = fp32_fw.value();

  RouterServiceConfig cfg;
  cfg.worker_threads = 2;
  RouterService service(selector, cfg);
  std::vector<std::future<RouteReply>> futs;
  for (const auto& g : layouts) {
    futs.push_back(service.submit(RouteRequest{g, std::nullopt}));
  }
  std::uint64_t misses = 0;
  for (auto& f : futs) misses += f.get().cache_hit ? 0 : 1;
  // Repeats after their originals resolved: hits, no forward.
  for (const auto& g : layouts) EXPECT_TRUE(service.route(g).cache_hit);

  EXPECT_GE(misses, 1u);
  EXPECT_EQ(int8_fw.value() - int8_before, misses);
  EXPECT_EQ(fp32_fw.value() - fp32_before, 0u);
}

/// OS threads of this process, or 0 where /proc is unavailable.
std::size_t os_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return std::size_t(std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(RouterServiceWorkers, AddsExactlyWorkerThreadsOsThreads) {
  // ThreadSanitizer starts a helper thread with the first thread a process
  // creates; let it start before taking the baseline.
  std::thread([] {}).join();
  const std::size_t base = os_threads();
  if (base == 0) GTEST_SKIP() << "/proc/self/task unavailable";
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  for (const std::size_t workers : {1u, 3u}) {
    RouterServiceConfig cfg;
    cfg.worker_threads = workers;
    RouterService service(selector, cfg);
    EXPECT_EQ(os_threads(), base + workers);
    // Serving starts nothing lazily.
    EXPECT_TRUE(service.route(std::make_shared<const HananGrid>(small_grid()))
                    .result.connected);
    EXPECT_EQ(os_threads(), base + workers);
  }
  EXPECT_EQ(os_threads(), base);
}

TEST(RouterServiceWorkers, DestructorCompletesEverySubmittedFuture) {
  const auto layouts = mixed_layouts();
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  std::vector<std::future<RouteReply>> futs;
  {
    RouterServiceConfig cfg;
    cfg.worker_threads = 2;
    cfg.cache_capacity = 0;
    RouterService service(selector, cfg);
    for (int round = 0; round < 4; ++round) {
      for (const auto& g : layouts) {
        futs.push_back(service.submit(RouteRequest{g, std::nullopt}));
      }
    }
  }  // destroyed with most requests still queued
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().result.connected);
  }
}

TEST(RouterServiceWorkers, RepeatSubmittedAfterItsOriginalResolvesHits) {
  const auto layouts = mixed_layouts();
  const auto augs = rl::all_augmentations();
  auto selector = std::make_shared<rl::SteinerSelector>(tiny_config());
  RouterServiceConfig cfg;
  cfg.worker_threads = 4;
  RouterService service(selector, cfg);
  std::vector<std::future<RouteReply>> originals;
  for (const auto& g : layouts) {
    originals.push_back(service.submit(RouteRequest{g, std::nullopt}));
  }
  // Each repeat (a symmetry variant) goes out the moment its original's
  // future is ready, while other workers are still busy.
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    const RouteReply original = originals[i].get();
    ASSERT_FALSE(original.cache_hit);
    const auto variant = std::make_shared<const HananGrid>(
        rl::transform_grid(*layouts[i], augs[(i * 5) % augs.size()]));
    const RouteReply repeat =
        service.submit(RouteRequest{variant, std::nullopt}).get();
    EXPECT_TRUE(repeat.cache_hit) << "layout " << i;
    EXPECT_EQ(repeat.result.cost, original.result.cost) << "layout " << i;
  }
}

}  // namespace
}  // namespace oar::serve
