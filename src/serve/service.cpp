#include "serve/service.hpp"

#include <algorithm>
#include <cmath>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace oar::serve {

namespace {

// The service's metrics, all in the process-global registry.  Names follow
// the oar_<subsystem>_<what>_<unit> scheme of DESIGN.md §12; the serving
// integration test pins these families.
constexpr const char* kRequestLatency = "oar_serve_request_latency_seconds";

struct ServeObs {
  obs::Counter& requests;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  // SLO family (DESIGN.md §16).
  obs::Counter& slo_deadline_misses;
  obs::Counter& slo_rejected_queue_full;
  obs::Counter& slo_rejected_hopeless;
  obs::Gauge& queue_depth;
  obs::Gauge& cache_entries;
  obs::Gauge& slo_p50_latency;
  obs::Gauge& slo_p99_latency;
  obs::Histogram& request_latency;
  obs::Histogram& queue_latency;
  obs::Histogram& inference_latency;
  obs::Histogram& routing_latency;
  obs::Histogram& slo_slack;
};

ServeObs& serve_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static ServeObs o{
      reg.counter("oar_serve_requests_total", "Routing requests submitted"),
      reg.counter("oar_serve_cache_hits_total",
                  "Requests answered from the symmetry-aware result cache"),
      reg.counter("oar_serve_cache_misses_total",
                  "Requests that missed the result cache and were queued"),
      reg.counter("oar_serve_slo_deadline_misses_total",
                  "Served replies that finished after their effective deadline"),
      reg.counter("oar_serve_slo_rejected_queue_full_total",
                  "Requests rejected at admission: queue at max_queue_depth"),
      reg.counter("oar_serve_slo_rejected_hopeless_total",
                  "Requests rejected at admission: deadline slack below floor"),
      reg.gauge("oar_serve_queue_depth", "Requests waiting in the admission queue"),
      reg.gauge("oar_serve_cache_entries", "Entries resident in the result cache"),
      reg.gauge("oar_serve_slo_p50_latency_seconds",
                "Median end-to-end latency, refreshed at each scrape"),
      reg.gauge("oar_serve_slo_p99_latency_seconds",
                "p99 end-to-end latency, refreshed at each scrape"),
      reg.histogram(kRequestLatency, obs::latency_buckets(),
                    "Submit-to-reply latency per request"),
      reg.histogram("oar_serve_queue_seconds", obs::latency_buckets(),
                    "Submit-to-pop queue wait per routed request"),
      reg.histogram("oar_serve_inference_seconds", obs::latency_buckets(),
                    "Encode + U-Net forward latency per routed request"),
      reg.histogram("oar_serve_routing_seconds", obs::latency_buckets(),
                    "Top-k selection + OARMST build latency per routed request"),
      reg.histogram("oar_serve_slo_slack_seconds", obs::latency_buckets(),
                    "Deadline slack remaining at reply (misses land in the "
                    "zero bucket)"),
  };
  return o;
}

}  // namespace

const char* reply_status_name(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk:
      return "ok";
    case ReplyStatus::kOverloadedQueueFull:
      return "overloaded_queue_full";
    case ReplyStatus::kOverloadedHopelessDeadline:
      return "overloaded_hopeless_deadline";
  }
  return "unknown";
}

void SloConfig::validate() const {
  util::check_field(default_deadline_ms >= 0.0 && std::isfinite(default_deadline_ms),
                    "SloConfig", "default_deadline_ms",
                    "be finite and non-negative (0 disables)",
                    default_deadline_ms);
  util::check_field(min_slack_ms >= 0.0 && std::isfinite(min_slack_ms),
                    "SloConfig", "min_slack_ms", "be finite and non-negative",
                    min_slack_ms);
}

void RouterServiceConfig::validate() const {
  util::check_field(!experience_read_only || !experience_path.empty(),
                    "RouterServiceConfig", "experience_read_only",
                    "require experience_path to name an existing file",
                    experience_read_only);
  slo.validate();
}

std::size_t most_urgent_index(
    const std::vector<std::optional<Clock::time_point>>& deadlines) {
  if (deadlines.empty()) return 0;
  const auto it = detail::most_urgent(
      deadlines.begin(), deadlines.end(),
      [](const std::optional<Clock::time_point>& d)
          -> const std::optional<Clock::time_point>& { return d; });
  return std::size_t(it - deadlines.begin());
}

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

experience::StoreConfig store_config_of(const RouterServiceConfig& config) {
  experience::StoreConfig sc;
  sc.memory_capacity = config.cache_capacity;
  sc.path = config.experience_path;
  sc.read_only = config.experience_read_only;
  sc.flush_batch = config.experience_flush_batch;
  return sc;
}

}  // namespace

RouterService::RouterService(std::shared_ptr<rl::SteinerSelector> selector,
                             RouterServiceConfig config)
    : RouterService(std::move(selector), config,
                    std::make_shared<experience::Store>(
                        store_config_of(config))) {}

RouterService::RouterService(std::shared_ptr<rl::SteinerSelector> selector,
                             RouterServiceConfig config,
                             std::shared_ptr<experience::Store> store)
    : config_(config),
      selector_(std::move(selector)),
      store_(std::move(store)) {
  config_.validate();
  if (store_ == nullptr) {
    store_ = std::make_shared<experience::Store>(store_config_of(config_));
  }
  const std::size_t n = util::ThreadPool::resolve_thread_count(
      std::int64_t(config_.worker_threads));
  for (std::size_t i = 1; i < n; ++i) replicas_.push_back(selector_->replica());
  try {
    workers_.emplace_back([this] { worker_loop(*selector_); });
    for (const auto& replica : replicas_) {
      workers_.emplace_back([this, r = replica.get()] { worker_loop(*r); });
    }
  } catch (...) {
    stop();  // a thread failed to start: join the ones that did
    throw;
  }
}

RouterService::~RouterService() { stop(); }

void RouterService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<RouteReply> RouterService::submit(RouteRequest request) {
  serve_obs().requests.inc();
  const Clock::time_point now = Clock::now();

  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = now;
  pending.deadline = pending.request.deadline;
  if (!pending.deadline && config_.slo.default_deadline_ms > 0.0) {
    pending.deadline =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      config_.slo.default_deadline_ms));
  }
  std::future<RouteReply> fut = pending.promise.get_future();

  // A symmetry-store hit is answered even when the deadline is hopeless —
  // the reply is free, so rejecting it would only discard useful work.
  if (caching_enabled()) {
    pending.canon = experience::canonicalize(*pending.request.grid);
    experience::HitTier tier = experience::HitTier::kMiss;
    if (std::optional<experience::ExperienceRecord> hit = store_->get(
            experience::CanonicalKey::from_bytes(pending.canon.key), &tier)) {
      serve_obs().cache_hits.inc();
      RouteReply reply = replay_cached(pending.request, pending.canon, *hit);
      reply.hit_tier = tier;
      const Clock::time_point done = Clock::now();
      reply.total_seconds = seconds_between(now, done);
      if (pending.deadline) {
        serve_obs().slo_slack.observe(
            std::max(0.0, seconds_between(done, *pending.deadline)));
        if (done > *pending.deadline) {
          reply.deadline_met = false;
          serve_obs().slo_deadline_misses.inc();
        }
      }
      serve_obs().request_latency.observe(reply.total_seconds);
      pending.promise.set_value(std::move(reply));
      return fut;
    }
  }

  serve_obs().cache_misses.inc();

  // Admission control: resolve hopeless or over-capacity requests here,
  // synchronously and typed — never by blocking the caller.
  const auto reject = [&](ReplyStatus status) {
    RouteReply reply;
    reply.grid = pending.request.grid;
    reply.status = status;
    reply.deadline_met = false;
    reply.total_seconds = seconds_between(now, Clock::now());
    pending.promise.set_value(std::move(reply));
  };

  if (config_.slo.reject_hopeless && pending.deadline) {
    const double slack_ms = seconds_between(now, *pending.deadline) * 1e3;
    if (slack_ms < config_.slo.min_slack_ms) {
      serve_obs().slo_rejected_hopeless.inc();
      reject(ReplyStatus::kOverloadedHopelessDeadline);
      return fut;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (config_.slo.max_queue_depth > 0 &&
        queue_.size() >= config_.slo.max_queue_depth) {
      serve_obs().slo_rejected_queue_full.inc();
      reject(ReplyStatus::kOverloadedQueueFull);
      return fut;
    }
    queue_.push_back(std::move(pending));
    serve_obs().queue_depth.set(double(queue_.size()));
  }
  cv_.notify_all();
  return fut;
}

RouteReply RouterService::route(std::shared_ptr<const HananGrid> grid) {
  return submit(RouteRequest{std::move(grid), std::nullopt}).get();
}

void RouterService::worker_loop(rl::SteinerSelector& selector) {
  for (;;) {
    Pending pending;
    Clock::time_point popped;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      const auto it = detail::most_urgent(
          queue_.begin(), queue_.end(),
          [](const Pending& p) -> const std::optional<Clock::time_point>& {
            return p.deadline;
          });
      pending = std::move(*it);
      queue_.erase(it);
      popped = Clock::now();
      serve_obs().queue_depth.set(double(queue_.size()));
    }
    try {
      serve_request(selector, pending, popped);
    } catch (...) {
      pending.promise.set_exception(std::current_exception());
    }
  }
}

void RouterService::serve_request(rl::SteinerSelector& selector,
                                  Pending& p, Clock::time_point popped) {
  const double queue_seconds = std::max(0.0, seconds_between(p.enqueued, popped));
  serve_obs().queue_latency.observe(queue_seconds);
  const HananGrid& grid = *p.request.grid;

  util::Timer infer_timer;
  const std::vector<double> fsp = selector.infer_fsp(grid);
  const double infer_seconds = infer_timer.seconds();
  serve_obs().inference_latency.observe(infer_seconds);

  util::Timer route_timer;
  const std::int32_t budget =
      std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2);
  const std::vector<Vertex> steiner =
      rl::SteinerSelector::top_k_valid(grid, fsp, budget, {});
  // Per-thread scratch: the maze arrays persist across requests, so
  // steady-state serving does no O(V) routing allocations.
  route::OarmstRouter router(grid);
  route::OarmstResult res =
      router.build(grid.pins(), steiner, &route::local_router_scratch());
  const double route_seconds = route_timer.seconds();
  serve_obs().routing_latency.observe(route_seconds);

  if (caching_enabled() && res.connected) {
    // Stored in canonical vertex space so symmetry variants hit too, and
    // before the promise resolves, so a repeat submitted after this reply
    // is a hit.  The record also carries the fsp inference and kept
    // Steiner set in pin-stripped base space — the warm-start payload
    // MCTS mines for near-miss priors (experience/record.hpp).
    store_->put(experience::build_record(
        grid, p.canon, res, std::vector<float>(fsp.begin(), fsp.end()),
        res.kept_steiner));
    serve_obs().cache_entries.set(double(store_->memory_entries()));
  }

  const Clock::time_point done = Clock::now();
  RouteReply reply;
  reply.grid = p.request.grid;
  reply.result = std::move(res);
  reply.result.tree.rebind_grid(reply.grid.get());
  reply.queue_seconds = queue_seconds;
  reply.inference_seconds = infer_seconds;
  reply.routing_seconds = route_seconds;
  reply.total_seconds = seconds_between(p.enqueued, done);
  if (p.deadline) {
    serve_obs().slo_slack.observe(
        std::max(0.0, seconds_between(done, *p.deadline)));
    if (done > *p.deadline) {
      reply.deadline_met = false;
      serve_obs().slo_deadline_misses.inc();
    }
  }
  serve_obs().request_latency.observe(reply.total_seconds);
  p.promise.set_value(std::move(reply));
}

void RouterService::refresh_gauges() {
  ServeObs& o = serve_obs();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    o.queue_depth.set(double(queue_.size()));
  }
  o.cache_entries.set(double(store_->memory_entries()));
  // Percentile gauges are bucket quantiles of the registry's own
  // request-latency histogram, recomputed at every scrape.
  for (const obs::HistogramSample& h :
       obs::MetricsRegistry::instance().snapshot().histograms) {
    if (h.name != kRequestLatency) continue;
    o.slo_p50_latency.set(obs::histogram_quantile(h, 0.50));
    o.slo_p99_latency.set(obs::histogram_quantile(h, 0.99));
  }
}

std::string RouterService::scrape_prometheus() {
  refresh_gauges();
  return obs::scrape_prometheus();
}

std::string RouterService::scrape_json() {
  refresh_gauges();
  return obs::scrape_json();
}

bool RouterService::caching_enabled() const {
  // The injected-store case must consult the store's own config (our
  // config_'s cache fields are ignored then).
  return store_->config().memory_capacity > 0 || store_->has_disk_tier();
}

RouteReply RouterService::replay_cached(
    const RouteRequest& request, const experience::CanonicalForm& canon,
    const experience::ExperienceRecord& cached) const {
  const HananGrid& grid = *request.grid;
  const std::vector<Vertex> inv = experience::inverse_vertex_map(grid, canon.spec);

  RouteReply reply;
  reply.grid = request.grid;
  reply.cache_hit = true;

  route::RouteTree tree(request.grid.get());
  for (const route::GridEdge& e : cached.edges) {
    tree.add_edge(inv[std::size_t(e.a)], inv[std::size_t(e.b)]);
  }
  reply.result.tree = std::move(tree);
  reply.result.cost = cached.cost;
  reply.result.connected = cached.connected;
  reply.result.rebuild_passes = 0;
  reply.result.kept_steiner.reserve(cached.steiner.size());
  for (Vertex v : cached.steiner) {
    reply.result.kept_steiner.push_back(inv[std::size_t(v)]);
  }
  return reply;
}

}  // namespace oar::serve
