#pragma once

// Per-stage serving metrics: request counters plus a latency distribution
// for every pipeline stage (queue wait, inference, OARMST routing,
// end-to-end).  Each stage keeps a fixed-bucket histogram on the
// obs::latency_buckets() ladder plus util::RunningStats for the exact
// count/mean/max, so memory stays constant however long the service runs;
// the percentiles are obs::histogram_quantile reads of the buckets.  A
// snapshot() is cheap enough to take mid-run and dump_csv() writes the
// bench-standard machine-readable table.

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace oar::serve {

enum class Stage : int {
  kQueueWait = 0,  // submit -> popped by a worker
  kInference,      // encode + single-sample U-Net forward (per request)
  kRouting,        // top-k selection + OARMST build (per request)
  kTotal,          // submit -> reply ready (per request)
};
constexpr int kNumStages = 4;

const char* stage_name(Stage stage);

struct StageSummary {
  std::size_t count = 0;
  double mean_ms = 0.0;
  /// Histogram quantiles: linear interpolation inside the doubling bucket
  /// holding the rank, so each is exact to within its bucket.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

struct MetricsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_hopeless = 0;
  std::array<StageSummary, kNumStages> stages;

  double cache_hit_rate() const {
    return requests == 0 ? 0.0 : double(cache_hits) / double(requests);
  }
};

class ServiceMetrics {
 public:
  ServiceMetrics();

  void record_stage(Stage stage, double seconds);
  void add_request();
  void add_cache_hit();
  void add_deadline_miss();
  void add_rejected_queue_full();
  void add_rejected_hopeless();

  MetricsSnapshot snapshot() const;

  /// One row per stage (count/mean/percentiles in ms) followed by the
  /// counter rows.  Returns false when the file cannot be opened.
  bool dump_csv(const std::string& path) const;

  /// Bytes this object holds, heap included.  Fixed at construction.
  std::size_t footprint_bytes() const;

 private:
  struct StageHistogram {
    util::RunningStats stats;
    std::vector<std::uint64_t> counts;  // bounds_.size() + 1 (+Inf last)
  };

  mutable std::mutex mutex_;
  const std::vector<double> bounds_;  // obs::latency_buckets(), seconds
  std::array<StageHistogram, kNumStages> stages_;
  std::uint64_t requests_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t rejected_queue_full_ = 0;
  std::uint64_t rejected_hopeless_ = 0;
};

}  // namespace oar::serve
