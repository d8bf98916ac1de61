#include "serve/metrics.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "util/csv.hpp"

namespace oar::serve {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kInference:
      return "inference";
    case Stage::kRouting:
      return "routing";
    case Stage::kTotal:
      return "total";
  }
  return "unknown";
}

ServiceMetrics::ServiceMetrics() : bounds_(obs::latency_buckets()) {
  for (StageHistogram& h : stages_) h.counts.assign(bounds_.size() + 1, 0);
}

void ServiceMetrics::record_stage(Stage stage, double seconds) {
  // Prometheus "le" semantics: the first bucket whose bound is >= x.
  const auto bucket = std::size_t(
      std::lower_bound(bounds_.begin(), bounds_.end(), seconds) - bounds_.begin());
  std::lock_guard<std::mutex> lock(mutex_);
  StageHistogram& h = stages_[std::size_t(stage)];
  h.stats.add(seconds);
  h.counts[bucket]++;
}

void ServiceMetrics::add_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  requests_++;
}

void ServiceMetrics::add_cache_hit() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_hits_++;
}

void ServiceMetrics::add_deadline_miss() {
  std::lock_guard<std::mutex> lock(mutex_);
  deadline_misses_++;
}

void ServiceMetrics::add_rejected_queue_full() {
  std::lock_guard<std::mutex> lock(mutex_);
  rejected_queue_full_++;
}

void ServiceMetrics::add_rejected_hopeless() {
  std::lock_guard<std::mutex> lock(mutex_);
  rejected_hopeless_++;
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot snap;
  std::array<obs::HistogramSample, kNumStages> hist;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.requests = requests_;
    snap.cache_hits = cache_hits_;
    snap.deadline_misses = deadline_misses_;
    snap.rejected_queue_full = rejected_queue_full_;
    snap.rejected_hopeless = rejected_hopeless_;
    for (int s = 0; s < kNumStages; ++s) {
      const util::RunningStats& st = stages_[std::size_t(s)].stats;
      StageSummary& out = snap.stages[std::size_t(s)];
      out.count = st.count();
      if (st.count() == 0) continue;
      out.mean_ms = st.mean() * 1e3;
      out.max_ms = st.max() * 1e3;
      hist[std::size_t(s)].counts = stages_[std::size_t(s)].counts;
      hist[std::size_t(s)].count = st.count();
    }
  }
  for (int s = 0; s < kNumStages; ++s) {
    StageSummary& out = snap.stages[std::size_t(s)];
    if (out.count == 0) continue;
    obs::HistogramSample& h = hist[std::size_t(s)];
    h.bounds = bounds_;
    out.p50_ms = obs::histogram_quantile(h, 0.50) * 1e3;
    out.p90_ms = obs::histogram_quantile(h, 0.90) * 1e3;
    out.p99_ms = obs::histogram_quantile(h, 0.99) * 1e3;
  }
  return snap;
}

bool ServiceMetrics::dump_csv(const std::string& path) const {
  const MetricsSnapshot snap = snapshot();
  util::CsvWriter csv(path, {"stage", "count", "mean_ms", "p50_ms", "p90_ms",
                             "p99_ms", "max_ms"});
  if (!csv.is_open()) return false;
  for (int s = 0; s < kNumStages; ++s) {
    const StageSummary& st = snap.stages[std::size_t(s)];
    csv.row_values(stage_name(Stage(s)), st.count, st.mean_ms, st.p50_ms,
                   st.p90_ms, st.p99_ms, st.max_ms);
  }
  csv.row_values("requests", snap.requests, "", "", "", "", "");
  csv.row_values("cache_hits", snap.cache_hits, "", "", "", "", "");
  csv.row_values("cache_hit_rate", snap.cache_hit_rate(), "", "", "", "", "");
  csv.row_values("deadline_misses", snap.deadline_misses, "", "", "", "", "");
  csv.row_values("rejected_queue_full", snap.rejected_queue_full, "", "", "", "",
                 "");
  csv.row_values("rejected_hopeless", snap.rejected_hopeless, "", "", "", "", "");
  return true;
}

std::size_t ServiceMetrics::footprint_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = sizeof(*this) + bounds_.capacity() * sizeof(double);
  for (const StageHistogram& h : stages_) {
    bytes += h.counts.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace oar::serve
