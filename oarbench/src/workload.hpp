#pragma once

// The four workloads behind one interface.  A workload is set up (timed by
// the caller, repeated for setup_s), then runs one timed phase and hands
// back its op latencies, output-check outcome and the per-layer rows its
// own results and registry deltas give.  replay() re-times the layers'
// public functions one at a time on the workload's own inputs (the traced
// run's "T" rows).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace oarbench {

/// How large a run is: `full` is the benchmark proper; `slice` is the
/// short count-bounded pass of the traced run; `tiny` is the self-test.
enum class Scale { kFull, kSlice, kTiny };

/// Where a workload gets its selector: a fresh pinned-recipe training (the
/// benchmark proper, so set-up pays for it) or a copy of one trained once
/// per process (the traced run).
using SelectorSource = std::function<std::shared_ptr<oar::rl::SteinerSelector>()>;

struct PhaseOut {
  /// One latency per attempted op, in ms.
  std::vector<double> lat_ms;
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  /// Wall time of the timed phase.
  double phase_s = 0.0;
  /// Work units completed (requests, nets, samples); ops_per_s is
  /// work_units / phase_s.
  double work_units = 0.0;
  double quality = 0.0;
  /// Per-layer rows measured on this phase (R and C sources).
  std::vector<Metric> layer;
  /// Output checks that failed (each also counts against ok).
  std::vector<std::string> check_failures;
  /// Structural faults: they invalidate the whole run.
  std::vector<std::string> faults;
  /// Workload-specific provenance (sample counts, configuration).
  JsonObject prov;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Threads that run at once in the timed phase, counting the caller.
  virtual int threads() const = 0;
  /// OS threads the timed phase may show: threads() plus a caller that
  /// only waits (it blocks while a pool runs, never alongside it).
  virtual int os_threads_allowed() const { return threads(); }
  /// Builds everything the timed phase needs; timed by the caller.
  virtual void setup() = 0;
  /// fnv1a64 over the timed inputs (layouts, pins, netlists, schedule).
  virtual std::uint64_t inputs_digest() const = 0;
  /// The timed phase, then its output checks.  `seconds` bounds
  /// time-limited workloads; `watch` runs exactly while ops are timed.
  virtual PhaseOut run(double seconds, ThreadWatch& watch) = 0;
  /// The "T" rows: layer calls re-timed one at a time on own inputs.
  virtual void replay(std::vector<Metric>& out) = 0;
};

std::unique_ptr<Workload> make_serve(std::uint64_t seed, double seconds,
                                     Scale scale, SelectorSource source,
                                     std::string out_dir);
std::unique_ptr<Workload> make_search(std::uint64_t seed, double seconds,
                                      Scale scale, SelectorSource source,
                                      std::string out_dir);
std::unique_ptr<Workload> make_train(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_chip(std::uint64_t seed, double seconds,
                                    Scale scale, SelectorSource source,
                                    std::string out_dir);

/// Median wall time in ms of `reps` calls of `fn` (after one warm call).
double time_median_ms(int reps, const std::function<void()>& fn);

/// Runs `fn(i)` for i in [0, n) on `threads` threads including the caller
/// (used for post-run output checks, outside every timed phase).
void parallel_indices(std::size_t n, int threads,
                      const std::function<void(std::size_t)>& fn);

}  // namespace oarbench
