#pragma once

// RouterService: the production-facing serving layer over the RL router.
//
// Clients submit routing requests (a Hanan-grid layout with pins, plus an
// optional deadline) onto a thread-safe admission queue and receive a
// future.  `worker_threads` service threads drain the queue directly: each
// takes the most urgent request and runs all of it on its own selector —
// encode, one single-sample U-Net forward (int8 or fp32), top-(n-2)
// selection, the OARMST build, the experience-store put, then the promise.
// There is no batching: on this CPU-only engine a stacked forward is slower
// per sample than the single-sample one, so a request never waits for
// company.
//
// Worker 0 runs on the caller's selector; workers 1..N-1 run on
// SteinerSelector::replica() copies built once at construction (same
// weights, precision and int8 pack, private forward state).  The service
// therefore snapshots the selector when it is constructed: load weights or
// calibrate int8 before constructing it, not after.
//
// Results are memoized in a tiered experience::Store keyed by the
// canonical layout hash (experience/canonical.hpp), so a request equal to
// a previous one *up to the 16 augmentation symmetries* is answered
// synchronously from submit() without touching the network — from the
// in-memory LRU tier, or, when RouterServiceConfig::experience_path is
// set, from the persistent disk tier, which means exact hits survive
// process restarts and deploys.  Stored trees live in canonical vertex
// space and are mapped back through the request's symmetry on a hit; the
// answering tier is reported in RouteReply::hit_tier.  A miss is stored
// before its future resolves, so a repeat submitted after the original's
// reply is always a hit.
//
// SLO-aware serving (DESIGN.md §16): every request carries an *effective
// deadline* — its own, or submit-time + SloConfig::default_deadline_ms.
// Workers pop the earliest effective deadline first (EDF; FIFO among
// deadline-less requests) instead of strict FIFO.  Admission control turns
// the queue from unbounded to bounded: a full queue or a hopeless deadline
// resolves the future *immediately* with a typed Overloaded reply
// (ReplyStatus) instead of blocking forever or serving a result nobody
// will use.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "experience/canonical.hpp"
#include "experience/store.hpp"
#include "rl/selector.hpp"
#include "route/oarmst.hpp"

namespace oar::serve {

using hanan::HananGrid;
using hanan::Vertex;
using Clock = std::chrono::steady_clock;

struct RouteRequest {
  /// Layout + pins.  Shared ownership: the reply's tree stays bound to it.
  std::shared_ptr<const HananGrid> grid;
  /// Optional completion deadline; a reply finishing later is flagged.
  /// Requests without one inherit SloConfig::default_deadline_ms.
  std::optional<Clock::time_point> deadline;
};

/// Typed admission outcome.  kOk replies carry a routed result; the
/// Overloaded rejections carry an empty result and resolve synchronously
/// inside submit() — admission control never blocks the caller.
enum class ReplyStatus : int {
  kOk = 0,
  /// Rejected: the admission queue held SloConfig::max_queue_depth
  /// requests already.
  kOverloadedQueueFull,
  /// Rejected: the request's effective deadline was hopeless at submit
  /// (slack below SloConfig::min_slack_ms with reject_hopeless on).
  kOverloadedHopelessDeadline,
};

const char* reply_status_name(ReplyStatus status);

struct RouteReply {
  /// The grid the result's tree is bound to (same object as the request's).
  std::shared_ptr<const HananGrid> grid;
  route::OarmstResult result;
  /// kOk for served replies; an Overloaded value for admission rejections
  /// (result is then empty and deadline_met is false).
  ReplyStatus status = ReplyStatus::kOk;
  bool cache_hit = false;
  /// Which experience tier answered: kMemory (LRU), kDisk (persistent
  /// file, survives restarts), or kMiss (freshly routed).  cache_hit ==
  /// (hit_tier != kMiss).
  experience::HitTier hit_tier = experience::HitTier::kMiss;
  /// False when the reply finished after the request's effective deadline
  /// (or was rejected at admission).
  bool deadline_met = true;
  double queue_seconds = 0.0;
  double inference_seconds = 0.0;
  double routing_seconds = 0.0;
  double total_seconds = 0.0;

  bool overloaded() const { return status != ReplyStatus::kOk; }
};

/// Latency-SLO policy (DESIGN.md §16).  Defaults preserve the legacy
/// behaviour exactly: no default deadline, unbounded queue, late requests
/// served and flagged rather than rejected.
struct SloConfig {
  /// Default per-request latency target in ms, applied at submit() to
  /// requests that carry no explicit deadline.  0 disables (no deadline).
  double default_deadline_ms = 0.0;
  /// Admission bound on queued requests; a submit() finding this many
  /// waiting resolves immediately with kOverloadedQueueFull.  0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// When true, a request whose effective deadline leaves less than
  /// min_slack_ms of slack at submit() is rejected with
  /// kOverloadedHopelessDeadline instead of queued (it cannot be served in
  /// time; serving it anyway would also delay feasible requests).
  bool reject_hopeless = false;
  /// Slack floor for reject_hopeless, in ms.  0 rejects only requests
  /// whose deadline has already passed.
  double min_slack_ms = 0.0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

struct RouterServiceConfig {
  /// Memory-tier LRU entries; 0 disables the memory tier.
  std::size_t cache_capacity = 256;
  /// Persistent experience file backing the cache (experience::Store disk
  /// tier).  Empty = memory-only, the legacy behaviour; set, exact hits
  /// survive process restarts.  Ignored when a Store is injected.
  std::string experience_path;
  /// Open the experience file read-only: serve from it, never append.
  bool experience_read_only = false;
  /// Appends buffered before the disk tier flushes (single-writer append
  /// batching); 0 defers to shutdown.
  std::size_t experience_flush_batch = 16;
  /// Service threads, each serving whole requests on its own selector
  /// replica; 0 = hardware concurrency.  The service starts exactly this
  /// many threads.
  std::size_t worker_threads = 0;
  /// Latency-SLO policy (deadlines, admission control).
  SloConfig slo;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

namespace detail {

/// The urgency rule shared by the workers and their tests: earliest
/// effective deadline first; requests without a deadline are least urgent;
/// ties (including the all-deadline-less case) resolve FIFO, i.e. to the
/// lowest index.  `deadline_of(*it)` must yield a
/// std::optional<Clock::time_point>.
template <typename It, typename DeadlineOf>
It most_urgent(It first, It last, DeadlineOf&& deadline_of) {
  It best = first;
  for (It it = first; it != last; ++it) {
    const std::optional<Clock::time_point>& cand = deadline_of(*it);
    const std::optional<Clock::time_point>& cur = deadline_of(*best);
    if (cand && (!cur || *cand < *cur)) best = it;
  }
  return best;
}

}  // namespace detail

/// Index of the most urgent entry under the workers' scheduling rule
/// (exposed so scheduling is deterministically testable).
std::size_t most_urgent_index(
    const std::vector<std::optional<Clock::time_point>>& deadlines);

class RouterService {
 public:
  explicit RouterService(std::shared_ptr<rl::SteinerSelector> selector,
                         RouterServiceConfig config = {});
  /// Shares an externally-owned experience store (e.g. one also feeding
  /// MCTS warm starts).  config.cache_capacity / experience_* are then
  /// ignored — the store's own tiers apply.
  RouterService(std::shared_ptr<rl::SteinerSelector> selector,
                RouterServiceConfig config,
                std::shared_ptr<experience::Store> store);
  /// Drains the queue (every submitted future still completes), then joins
  /// the workers.
  ~RouterService();

  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  /// Enqueue a request.  Cache hits resolve before submit() returns.
  std::future<RouteReply> submit(RouteRequest request);

  /// Synchronous convenience wrapper.
  RouteReply route(std::shared_ptr<const HananGrid> grid);

  const RouterServiceConfig& config() const { return config_; }
  /// Entries resident in the memory tier (the legacy cache-size view).
  std::size_t cache_size() const { return store_->memory_entries(); }
  /// The tiered experience store backing result memoization.
  experience::Store& experience() { return *store_; }
  const std::shared_ptr<experience::Store>& experience_ptr() const {
    return store_;
  }

  /// Point-in-time export of the process-global obs::MetricsRegistry in
  /// Prometheus exposition format / JSON.  Contains the oar_serve_*
  /// families (request latency, queue/inference/routing stage latencies,
  /// symmetry-cache hits, SLO counters) and every lower layer's
  /// (MazeRouter epochs, inference arena, ...); the liveness gauges (queue
  /// depth, cache entries) and the p50/p99 latency gauges are refreshed
  /// first.  The registry is the service's only metrics store: like every
  /// oar_serve_* family, these are process-wide, summed over all services.
  std::string scrape_prometheus();
  std::string scrape_json();

 private:
  struct Pending {
    RouteRequest request;
    std::promise<RouteReply> promise;
    experience::CanonicalForm canon;
    Clock::time_point enqueued;
    /// Effective deadline: the request's own, else submit-time +
    /// SloConfig::default_deadline_ms (nullopt when neither applies).
    std::optional<Clock::time_point> deadline;
  };

  /// Drains the queue and joins every started worker.
  void stop();
  /// One service thread: pops the most urgent request and serves it on
  /// `selector` until stopping and drained.
  void worker_loop(rl::SteinerSelector& selector);
  /// Encode, forward, select, build, store, reply — all on this thread.
  void serve_request(rl::SteinerSelector& selector, Pending& pending,
                     Clock::time_point popped);
  /// Refreshes the liveness + percentile gauges ahead of a scrape.
  void refresh_gauges();
  /// Builds a reply from a stored record (maps canonical -> request space).
  RouteReply replay_cached(const RouteRequest& request,
                           const experience::CanonicalForm& canon,
                           const experience::ExperienceRecord& cached) const;
  /// True when some tier can answer (memory capacity > 0 or a disk tier).
  bool caching_enabled() const;

  RouterServiceConfig config_;
  std::shared_ptr<rl::SteinerSelector> selector_;
  std::shared_ptr<experience::Store> store_;
  /// Selectors of workers 1..N-1 (worker 0 runs on selector_).
  std::vector<std::unique_ptr<rl::SteinerSelector>> replicas_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace oar::serve
