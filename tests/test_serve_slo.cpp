// SLO-aware serving battery (DESIGN.md §16): admission control, EDF
// scheduling and deadline stamping.  The scheduling tests pin a one-worker
// service on a slow large-grid request and queue behind it.
// Suite names contain "RouterService" on purpose: the CI sanitizer lanes
// select their batteries by that substring.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gen/random_layout.hpp"
#include "obs/metrics.hpp"

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

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

std::shared_ptr<rl::SteinerSelector> tiny_selector() {
  return std::make_shared<rl::SteinerSelector>(tiny_config());
}

std::shared_ptr<const HananGrid> grid_of_shape(std::int32_t h, std::int32_t v,
                                               std::int32_t m,
                                               std::uint64_t seed = 4) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = 4;
  spec.max_pins = 4;
  spec.min_obstacles = 2;
  spec.max_obstacles = 2;
  return std::make_shared<const HananGrid>(gen::random_grid(spec, rng));
}

std::shared_ptr<const HananGrid> small_grid(std::uint64_t seed = 4) {
  return grid_of_shape(6, 6, 2, seed);
}

/// Submits a slow request (a 64x64x8 layout) to a one-worker service and
/// returns once the worker has taken it off the queue, so the caller's
/// next submissions queue behind it.  The pop is seen as a new queue-wait
/// observation, so callers skip under OARSMTRL_NO_METRICS.
std::future<RouteReply> pin_single_worker(RouterService& service) {
  const obs::Histogram& queue_wait = obs::MetricsRegistry::instance().histogram(
      "oar_serve_queue_seconds", obs::latency_buckets());
  const std::uint64_t popped = queue_wait.count();
  auto pin = service.submit(RouteRequest{grid_of_shape(64, 64, 8), std::nullopt});
  while (queue_wait.count() == popped) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return pin;
}

Clock::time_point in_ms(double ms) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

TEST(RouterServiceSlo, MostUrgentIndexRule) {
  // Empty and all-deadline-less pick index 0 (FIFO).
  EXPECT_EQ(most_urgent_index({}), 0u);
  EXPECT_EQ(most_urgent_index({std::nullopt, std::nullopt}), 0u);

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(10);
  const Clock::time_point t2 = t0 + std::chrono::milliseconds(20);

  // Earliest deadline wins over FIFO order.
  EXPECT_EQ(most_urgent_index({t2, t1, t0}), 2u);
  EXPECT_EQ(most_urgent_index({std::nullopt, t2, t1}), 2u);
  // Any deadline beats no deadline.
  EXPECT_EQ(most_urgent_index({std::nullopt, t2, std::nullopt}), 1u);
  // Deadline ties resolve FIFO (lowest index).
  EXPECT_EQ(most_urgent_index({t1, t1, t0 + std::chrono::milliseconds(30)}),
            0u);
}

TEST(RouterServiceSlo, SloConfigValidates) {
  SloConfig ok;
  EXPECT_NO_THROW(ok.validate());
  SloConfig bad = ok;
  bad.default_deadline_ms = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.min_slack_ms = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(RouterServiceSlo, DefaultDeadlineIsStampedAndFlagged) {
  // A service-level default deadline applies to requests without their
  // own; an (unmeetable) default must flag the reply late but still serve
  // it — reject_hopeless stays off by default.
  RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  cfg.cache_capacity = 0;
  cfg.slo.default_deadline_ms = 1e-3;
  RouterService service(tiny_selector(), cfg);
  const std::uint64_t misses = counter_value("oar_serve_slo_deadline_misses_total");
  const RouteReply reply = service.route(small_grid());
  EXPECT_EQ(reply.status, ReplyStatus::kOk);
  EXPECT_TRUE(reply.result.connected);
  EXPECT_FALSE(reply.deadline_met);

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_GE(counter_value("oar_serve_slo_deadline_misses_total") - misses, 1u);
}

TEST(RouterServiceSlo, HopelessDeadlineRejectsTyped) {
  RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  cfg.cache_capacity = 0;
  cfg.slo.reject_hopeless = true;
  RouterService service(tiny_selector(), cfg);
  const std::uint64_t before = counter_value("oar_serve_slo_rejected_hopeless_total");
  const RouteReply reply =
      service.submit(RouteRequest{small_grid(), in_ms(-5.0)}).get();
  EXPECT_EQ(reply.status, ReplyStatus::kOverloadedHopelessDeadline);
  EXPECT_TRUE(reply.overloaded());
  EXPECT_FALSE(reply.deadline_met);
  EXPECT_FALSE(reply.result.connected);
  const std::uint64_t rejected =
      counter_value("oar_serve_slo_rejected_hopeless_total") - before;
  // A request with healthy slack is admitted and served.
  const RouteReply ok =
      service.submit(RouteRequest{small_grid(), in_ms(60000.0)}).get();
  EXPECT_EQ(ok.status, ReplyStatus::kOk);
  EXPECT_TRUE(ok.result.connected);

  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  EXPECT_EQ(rejected, 1u);
}

TEST(RouterServiceSlo, QueueFullRejectsTyped) {
  // Deterministic overload: the only worker is busy on a slow request, so
  // later submissions accumulate in the queue until the admission bound
  // trips.
  if (!obs::kMetricsCompiled) {
    GTEST_SKIP() << "pin_single_worker needs the queue-wait histogram";
  }
  RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  cfg.cache_capacity = 0;
  cfg.slo.max_queue_depth = 2;
  RouterService service(tiny_selector(), cfg);
  const std::uint64_t before =
      counter_value("oar_serve_slo_rejected_queue_full_total");

  auto pin = pin_single_worker(service);
  auto q1 = service.submit(RouteRequest{small_grid(7), std::nullopt});
  auto q2 = service.submit(RouteRequest{small_grid(8), std::nullopt});
  auto q3 = service.submit(RouteRequest{small_grid(9), std::nullopt});
  ASSERT_NE(pin.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "the pinning request finished before the queue filled";

  // The third must already be resolved, typed, and empty.
  ASSERT_EQ(q3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const RouteReply rejected = q3.get();
  EXPECT_EQ(rejected.status, ReplyStatus::kOverloadedQueueFull);
  EXPECT_FALSE(rejected.deadline_met);
  EXPECT_FALSE(rejected.result.connected);
  EXPECT_EQ(counter_value("oar_serve_slo_rejected_queue_full_total") - before, 1u);

  // Every admitted request is still served as a valid tree.
  EXPECT_TRUE(pin.get().result.connected);
  EXPECT_TRUE(q1.get().result.connected);
  EXPECT_TRUE(q2.get().result.connected);
}

TEST(RouterServiceSlo, UrgentRequestIsScheduledFirst) {
  // While the only worker is busy, enqueue a deadline-less request then a
  // later, urgent one.  EDF pops the later, urgent request first: its
  // queue wait must come out shorter.
  if (!obs::kMetricsCompiled) {
    GTEST_SKIP() << "pin_single_worker needs the queue-wait histogram";
  }
  RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  cfg.cache_capacity = 0;
  RouterService service(tiny_selector(), cfg);

  auto pin = pin_single_worker(service);
  auto relaxed = service.submit(RouteRequest{small_grid(7), std::nullopt});
  auto urgent = service.submit(RouteRequest{small_grid(8), in_ms(60000.0)});
  ASSERT_NE(pin.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "the pinning request finished before both were queued";

  const RouteReply relaxed_reply = relaxed.get();
  const RouteReply urgent_reply = urgent.get();
  EXPECT_TRUE(pin.get().result.connected);
  EXPECT_TRUE(relaxed_reply.result.connected);
  EXPECT_TRUE(urgent_reply.result.connected);
  // Submitted later but popped earlier => strictly less queue wait.
  EXPECT_LT(urgent_reply.queue_seconds, relaxed_reply.queue_seconds);
}

TEST(RouterServiceSlo, ScrapeCarriesSloFamilies) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "built with OARSMTRL_NO_METRICS";
  RouterServiceConfig cfg;
  cfg.worker_threads = 1;
  cfg.cache_capacity = 0;
  cfg.slo.default_deadline_ms = 60000.0;
  RouterService service(tiny_selector(), cfg);
  EXPECT_TRUE(service.route(small_grid()).result.connected);

  const std::string prom = service.scrape_prometheus();
  EXPECT_NE(prom.find("oar_serve_slo_deadline_misses_total"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_rejected_queue_full_total"),
            std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_rejected_hopeless_total"),
            std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_slack_seconds"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_p50_latency_seconds"), std::string::npos);
  EXPECT_NE(prom.find("oar_serve_slo_p99_latency_seconds"), std::string::npos);
}

}  // namespace
}  // namespace oar::serve
