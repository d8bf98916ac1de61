// serve: an open loop of seeded Poisson arrivals through
// serve::RouterService at int8 precision.  A 3:1 mix of 16x16x4 and
// 32x32x8 layouts with 3-8 pins; about one request in five is a symmetry
// variant of a layout whose reply has completed and is still resident in
// the 256-entry memory tier, so the hit count is fixed by the schedule.

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "experience/canonical.hpp"
#include "experience/record.hpp"
#include "experience/store.hpp"
#include "gen/random_layout.hpp"
#include "rl/augment.hpp"
#include "rl/trainer.hpp"
#include "route/oarmst.hpp"
#include "serve/service.hpp"
#include "steiner/router_base.hpp"
#include "workload.hpp"

namespace oarbench {
namespace {

using namespace oar;
using GridPtr = std::shared_ptr<const hanan::HananGrid>;

// Frozen at an eighth of what the service sustains on this mix with two
// pool threads on the 4-core AVX2+VNNI reference box (p99 125 ms at
// 400 req/s; the queue grows without bound at 480 req/s).  At half of that,
// queue wait amplified co-tenant CPU noise: p50 spread 38% over seeds
// against 8% at this rate.
constexpr double kRatePerS = 50.0;
// Replies later than this (from their due time) count as failed.  Set well
// above the tail the service shows at kRatePerS.
constexpr double kLimitMs = 250.0;
// The run is invalid when the generator's p99 lateness exceeds this.
constexpr double kGenLateLimitMs = 20.0;
constexpr double kRepeatFrac = 0.2;
// A repeat copies an original due this long before it: late enough that
// the original's reply (bounded by kLimitMs) has completed, early enough
// that fewer than 256 newer entries have pushed it out of the memory tier.
constexpr double kRepeatWindowLoS = 0.5;
constexpr double kRepeatWindowHiS = 1.0;
constexpr int kWorkerThreads = 2;
constexpr int kWarmupRequests = 24;

struct Request {
  double due_s = 0.0;
  GridPtr grid;
  /// Index of the original request for a repeat, -1 for a fresh layout.
  std::int64_t original = -1;
};

rl::LayoutSizeSpec size_of(bool big) {
  return big ? rl::LayoutSizeSpec{32, 32, 8} : rl::LayoutSizeSpec{16, 16, 4};
}

/// Fresh layouts: in every block of four one is 32x32x8, and pin counts
/// cycle through shuffled blocks of 3..8, so the mix is the same for every
/// seed and only the layouts differ.
class LayoutStream {
 public:
  explicit LayoutStream(std::uint64_t seed) : rng_(seed) {}

  GridPtr next() {
    if (big_slots_.empty()) {
      big_slots_ = {0, 0, 0, 1};
      rng_.shuffle(big_slots_);
    }
    if (pins_.empty()) {
      pins_ = {3, 4, 5, 6, 7, 8};
      rng_.shuffle(pins_);
    }
    const bool big = big_slots_.back() != 0;
    big_slots_.pop_back();
    const int pins = pins_.back();
    pins_.pop_back();
    return std::make_shared<const hanan::HananGrid>(
        gen::random_grid(rl::training_spec(size_of(big), 0.10, pins, pins), rng_));
  }

  util::Rng& rng() { return rng_; }

 private:
  util::Rng rng_;
  std::vector<int> big_slots_;
  std::vector<int> pins_;
};

std::vector<Request> make_schedule(std::uint64_t seed, double seconds,
                                   double rate) {
  LayoutStream stream(stream_seed(seed, 0x5e77e));
  util::Rng& rng = stream.rng();
  const auto n = std::size_t(std::max(1L, std::lround(rate * seconds)));
  // A Poisson process conditioned on its count: n sorted uniform times.
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform(0.0, seconds);
  std::sort(due.begin(), due.end());

  std::vector<Request> reqs(n);
  std::vector<std::size_t> fresh;  // indices of originals, by due time
  const auto augs = rl::all_augmentations();
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].due_s = due[i];
    const bool want_repeat = rng.chance(kRepeatFrac);
    // Originals due in [t - hi, t - lo].
    const auto lo = std::lower_bound(
        fresh.begin(), fresh.end(), due[i] - kRepeatWindowHiS,
        [&](std::size_t j, double t) { return reqs[j].due_s < t; });
    const auto hi = std::upper_bound(
        fresh.begin(), fresh.end(), due[i] - kRepeatWindowLoS,
        [&](double t, std::size_t j) { return t < reqs[j].due_s; });
    if (want_repeat && lo < hi) {
      const std::size_t pick =
          *(lo + rng.uniform_int(0, std::int64_t(hi - lo) - 1));
      const rl::AugmentSpec& spec = augs[std::size_t(rng.uniform_int(0, 15))];
      reqs[i].grid = std::make_shared<const hanan::HananGrid>(
          rl::transform_grid(*reqs[pick].grid, spec));
      reqs[i].original = std::int64_t(pick);
    } else {
      reqs[i].grid = stream.next();
      fresh.push_back(i);
    }
  }
  return reqs;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, double seconds, Scale scale,
                SelectorSource source)
      : seed_(seed), seconds_(seconds), scale_(scale), source_(std::move(source)) {}

  std::string name() const override { return "serve"; }
  // Generator (this thread) + batcher + the pool.
  int threads() const override { return 2 + kWorkerThreads; }

  void setup() override {
    selector_ = source_();
    int8_ok_ = calibrate_pinned_int8(*selector_);
    const double rate = scale_ == Scale::kTiny ? 60.0 : kRatePerS;
    const double span = scale_ == Scale::kFull    ? seconds_
                        : scale_ == Scale::kSlice ? 2.0
                                                  : 1.0;
    reqs_ = make_schedule(seed_, span, rate);
    rate_ = rate;
    span_ = span;

    serve::RouterServiceConfig config;
    config.worker_threads = kWorkerThreads;
    service_ = std::make_unique<serve::RouterService>(selector_, config);
    // Warm-up on a disjoint stream: fills no timed cache entry.
    LayoutStream warm(stream_seed(seed_, 0x3a53));
    std::vector<std::future<serve::RouteReply>> futs;
    for (int i = 0; i < kWarmupRequests; ++i) {
      futs.push_back(service_->submit(serve::RouteRequest{warm.next(), std::nullopt}));
    }
    for (auto& f : futs) f.get();
    rss_after_setup_ = current_rss_mb();
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const Request& r : reqs_) {
      d.u64(std::uint64_t(std::llround(r.due_s * 1e9)));
      d.u64(std::uint64_t(r.original));
      d.grid(*r.grid);
    }
    return d.value();
  }

  PhaseOut run(double, ThreadWatch& watch) override;
  void replay(std::vector<Metric>& out) override;

 private:
  std::uint64_t seed_;
  double seconds_;
  Scale scale_;
  SelectorSource source_;
  std::shared_ptr<rl::SteinerSelector> selector_;
  bool int8_ok_ = false;
  double rate_ = 0.0, span_ = 0.0;
  std::vector<Request> reqs_;
  std::unique_ptr<serve::RouterService> service_;
  double rss_after_setup_ = 0.0;
};

PhaseOut ServeWorkload::run(double, ThreadWatch& watch) {
  PhaseOut out;
  const std::size_t n = reqs_.size();
  if (!int8_ok_ || !selector_->int8_active()) {
    out.faults.push_back("serve: int8 engine inactive after calibration");
  }

  std::vector<std::future<serve::RouteReply>> futs(n);
  std::vector<Clock::time_point> submitted(n);
  std::vector<double> late_ms(n), gen_late_ms(n);
  RegistryDelta delta;
  // Due times are offsets from t0; a short lead lets the first due time
  // lie in the future.
  watch.start();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(reqs_[i].due_s));
  };
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due_at(i));
    // A repeat goes out only once its original's reply is in, so it is a
    // memory-tier hit however late the original ran.  That wait counts in
    // the repeat's latency, not in the generator's lateness.
    Clock::time_point ready = due_at(i);
    if (const std::int64_t orig = reqs_[i].original; orig >= 0) {
      std::future<serve::RouteReply>& f = futs[std::size_t(orig)];
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        f.wait();
        ready = Clock::now();
      }
    }
    Span span("serve.submit", i);
    submitted[i] = Clock::now();
    futs[i] = service_->submit(serve::RouteRequest{reqs_[i].grid, std::nullopt});
    late_ms[i] = ms_between(due_at(i), submitted[i]);
    gen_late_ms[i] = ms_between(ready, submitted[i]);
  }
  std::vector<serve::RouteReply> replies(n);
  Clock::time_point last_done = t0;
  for (std::size_t i = 0; i < n; ++i) {
    replies[i] = futs[i].get();
    const auto done = submitted[i] + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(
                                             replies[i].total_seconds));
    last_done = std::max(last_done, done);
  }
  watch.stop();
  delta.finish();
  out.phase_s = std::chrono::duration<double>(last_done - t0).count();
  const double rss_growth = current_rss_mb() - rss_after_setup_;
  if (!selector_->int8_active()) {
    out.faults.push_back("serve: int8 engine inactive at the end of the run");
  }

  // Spans of each request, rebuilt from the reply's own stage timings.
  if (Tracer::instance().enabled()) {
    Tracer& tr = Tracer::instance();
    for (std::size_t i = 0; i < n; ++i) {
      const serve::RouteReply& r = replies[i];
      const auto at = [&](double s) {
        return submitted[i] + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(s));
      };
      const std::int64_t req = tr.add("serve.request", due_at(i), at(r.total_seconds), i);
      tr.add("serve.generator_late", due_at(i), submitted[i], i, req);
      if (!r.cache_hit) {
        tr.add("serve.queue", submitted[i], at(r.queue_seconds), i, req);
        const double route_start = r.total_seconds - r.routing_seconds;
        tr.add("nn.infer_batch", at(route_start - r.inference_seconds), at(route_start), i, req);
        tr.add("route.route_batch", at(route_start), at(r.total_seconds), i, req);
      } else {
        tr.add("experience.hit", submitted[i], at(r.total_seconds), i, req);
      }
    }
  }

  // The service is done: free its threads before the checks run.
  service_.reset();

  // ---- output checks (untimed) ----
  std::vector<double> mst(n, 0.0);
  std::vector<std::string> problem(n);
  parallel_indices(n, kThreadBudget, [&](std::size_t i) {
    const serve::RouteReply& r = replies[i];
    const hanan::HananGrid& grid = *reqs_[i].grid;
    if (r.status != serve::ReplyStatus::kOk) {
      problem[i] = std::string("rejected: ") + serve::reply_status_name(r.status);
      return;
    }
    if (!r.result.connected || !std::isfinite(r.result.cost)) {
      problem[i] = "reply not connected";
      return;
    }
    if (std::string bad = r.result.tree.validate(grid.pins()); !bad.empty()) {
      problem[i] = "invalid tree: " + bad;
      return;
    }
    if (reqs_[i].original < 0) mst[i] = steiner::mst_cost(grid);
  });

  std::int64_t hits = 0, repeats = 0;
  std::vector<double> queue_ms, infer_ms, route_ms;
  double ratio_sum = 0.0;
  std::int64_t ratio_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::RouteReply& r = replies[i];
    const std::int64_t orig = reqs_[i].original;
    if (r.cache_hit) ++hits;
    if (orig >= 0) {
      ++repeats;
      const double want = replies[std::size_t(orig)].result.cost;
      if (problem[i].empty() && !r.cache_hit) problem[i] = "scheduled repeat missed the cache";
      if (problem[i].empty() &&
          std::abs(r.result.cost - want) > 1e-9 * std::max(1.0, std::abs(want))) {
        problem[i] = "cache-hit cost differs from the original reply";
      }
    } else if (!r.cache_hit) {
      queue_ms.push_back(r.queue_seconds * 1e3);
      infer_ms.push_back(r.inference_seconds * 1e3);
      route_ms.push_back(r.routing_seconds * 1e3);
    }
    double lat = late_ms[i] + r.total_seconds * 1e3;
    if (r.status != serve::ReplyStatus::kOk) lat = std::max(lat, kLimitMs);
    out.lat_ms.push_back(lat);
    const bool on_time = lat <= kLimitMs;
    if (!problem[i].empty()) {
      if (out.check_failures.size() < 8) {
        out.check_failures.push_back("serve request " + std::to_string(i) + ": " + problem[i]);
      }
    } else if (on_time) {
      ++out.ok;
      const double denom = mst[std::size_t(orig >= 0 ? orig : std::int64_t(i))];
      if (denom > 0.0 && std::isfinite(denom)) {
        ratio_sum += r.result.cost / denom;
        ++ratio_n;
      }
    }
  }
  if (hits != repeats) {
    out.check_failures.push_back("serve: " + std::to_string(hits) + " cache hits for " +
                                 std::to_string(repeats) + " scheduled repeats");
  }
  out.attempted = std::int64_t(n);
  out.work_units = double(out.ok);
  out.quality = ratio_n > 0 ? ratio_sum / double(ratio_n) : 0.0;

  const double gen_late = percentile(gen_late_ms, 99.0);
  if (gen_late > kGenLateLimitMs) {
    out.faults.push_back("serve: generator p99 lateness " + std::to_string(gen_late) +
                         " ms exceeds " + std::to_string(kGenLateLimitMs) + " ms");
  }

  const double int8_fw = delta.counter("oar_nn_quant_int8_forwards_total");
  const double fp32_fw = delta.counter("oar_nn_quant_fp32_forwards_total");
  out.layer = {
      {"serve.queue_ms", median(queue_ms), "ms"},
      {"serve.queue_tail_ms", tail_of(queue_ms).value, "ms"},
      {"serve.infer_ms", median(infer_ms), "ms"},
      {"serve.route_ms", median(route_ms), "ms"},
      {"serve.batch_occupancy", delta.hist_mean("oar_serve_batch_occupancy"), "count"},
      {"serve.rss_growth_mb", rss_growth, "MB"},
      {"serve.gen_late_ms", gen_late, "ms"},
      {"experience.hit_frac", double(hits) / double(std::max<std::size_t>(1, n)), "frac"},
      {"nn.int8_forward_frac",
       int8_fw + fp32_fw > 0.0 ? int8_fw / (int8_fw + fp32_fw) : 0.0, "frac"},
  };
  out.prov.str("loop", "open");
  out.prov.num("rate_per_s", rate_);
  out.prov.num("schedule_s", span_);
  out.prov.num("limit_ms", kLimitMs);
  out.prov.integer("worker_threads", kWorkerThreads);
  out.prov.str("precision", "int8");
  out.prov.str("selector_weights_fnv1a64", hex64(weights_digest(*selector_)));
  out.prov.integer("requests", std::int64_t(n));
  out.prov.integer("scheduled_repeats", repeats);
  out.prov.integer("cache_hits", hits);
  out.prov.num("gen_late_p99_ms", gen_late);
  out.prov.num("gen_late_limit_ms", kGenLateLimitMs);
  return out;
}

void ServeWorkload::replay(std::vector<Metric>& out) {
  // A handful of the run's own fresh layouts per size.
  std::vector<GridPtr> small, big;
  for (const Request& r : reqs_) {
    if (r.original >= 0) continue;
    auto& bucket = r.grid->h_dim() == 32 ? big : small;
    if (bucket.size() < 8) bucket.push_back(r.grid);
  }
  // Short schedules may hold too few of a size: top up from a side stream.
  LayoutStream extra(stream_seed(seed_, 0x4e91a));
  while (small.size() < 2 || big.size() < 2) {
    GridPtr g = extra.next();
    (g->h_dim() == 32 ? big : small).push_back(std::move(g));
  }
  const int reps = scale_ == Scale::kTiny ? 3 : 24;
  std::size_t k = 0;

  out.push_back({"experience.canonicalize_us",
                 1e3 * time_median_ms(reps, [&] {
                   experience::canonicalize(*small[k++ % small.size()]);
                 }),
                 "us"});

  // Store get/put on records of the routed layouts.
  experience::Store store;
  std::vector<experience::KeyedRecord> records;
  for (const auto& g : small) {
    std::vector<double> fsp = selector_->infer_fsp(*g);
    const auto budget = std::int32_t(std::max<std::size_t>(2, g->pins().size()) - 2);
    route::OarmstRouter router(*g);
    route::OarmstResult res =
        router.build(g->pins(), rl::SteinerSelector::top_k_valid(*g, fsp, budget, {}));
    records.push_back(experience::build_record(
        *g, res, std::vector<float>(fsp.begin(), fsp.end()), res.kept_steiner));
  }
  k = 0;
  out.push_back({"experience.put_us", 1e3 * time_median_ms(reps, [&] {
                   store.put(records[k++ % records.size()]);
                 }),
                 "us"});
  k = 0;
  out.push_back({"experience.get_us", 1e3 * time_median_ms(reps, [&] {
                   store.get(records[k++ % records.size()].key);
                 }),
                 "us"});

  // Forwards: int8 on the serving selector, fp32 on a copy of it.
  rl::SteinerSelector fp32(selector_->config());
  fp32.copy_weights_from(*selector_);
  fp32.set_precision(nn::InferConfig::Precision::kFp32);
  std::vector<double> fsp;
  for (const auto& [label, grids] :
       {std::pair<std::string, std::vector<GridPtr>*>{"16x16x4", &small},
        std::pair<std::string, std::vector<GridPtr>*>{"32x32x8", &big}}) {
    const std::vector<GridPtr>& gs = *grids;
    k = 0;
    out.push_back({"nn.encode_us." + label, 1e3 * time_median_ms(reps, [&] {
                     rl::SteinerSelector::encode(*gs[k++ % gs.size()]);
                   }),
                   "us"});
    k = 0;
    out.push_back({"nn.fwd_int8_ms." + label, time_median_ms(reps, [&] {
                     selector_->infer_fsp_into(*gs[k++ % gs.size()], {}, fsp);
                   }),
                   "ms"});
    k = 0;
    out.push_back({"nn.fwd_fp32_ms." + label, time_median_ms(reps, [&] {
                     fp32.infer_fsp_into(*gs[k++ % gs.size()], {}, fsp);
                   }),
                   "ms"});
    // The OARMST build alone, on the Steiner points the selector picks.
    std::vector<std::vector<hanan::Vertex>> steiner;
    for (const GridPtr& g : gs) {
      const auto budget = std::int32_t(std::max<std::size_t>(2, g->pins().size()) - 2);
      steiner.push_back(
          rl::SteinerSelector::top_k_valid(*g, selector_->infer_fsp(*g), budget, {}));
    }
    k = 0;
    out.push_back({"route.oarmst_build_ms." + label, time_median_ms(reps, [&] {
                     const std::size_t i = k++ % gs.size();
                     route::OarmstRouter router(*gs[i]);
                     Span span("route.oarmst_build", i);
                     router.build(gs[i]->pins(), steiner[i]);
                   }),
                   "ms"});
  }

  // One batched fp32 pass over eight stacked 32x32x8 layouts, per sample.
  std::vector<nn::Tensor> inputs;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs.push_back(rl::SteinerSelector::encode(*big[i % big.size()]));
  }
  std::vector<std::int32_t> shape{8};
  shape.insert(shape.end(), inputs[0].shape().begin(), inputs[0].shape().end());
  nn::Tensor stacked(shape);
  for (std::size_t i = 0; i < 8; ++i) {
    std::copy(inputs[i].data(), inputs[i].data() + inputs[i].numel(),
              stacked.data() + std::int64_t(i) * inputs[i].numel());
  }
  out.push_back({"nn.fwd_batch8_ms_per_sample.32x32x8",
                 time_median_ms(std::max(3, reps / 4),
                                [&] { fp32.net().forward_batch(stacked); }) /
                     8.0,
                 "ms"});
}

}  // namespace

std::unique_ptr<Workload> make_serve(std::uint64_t seed, double seconds,
                                     Scale scale, SelectorSource source,
                                     std::string) {
  return std::make_unique<ServeWorkload>(seed, seconds, scale, std::move(source));
}

}  // namespace oarbench
