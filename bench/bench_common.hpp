#pragma once

// Shared infrastructure for the table/figure reproduction binaries.
//
// Every bench binary is a plain executable that regenerates one table or
// figure of the paper (scaled to a CPU-minute budget; EXPERIMENTS.md maps
// paper scale -> bench scale) and prints the same rows/series the paper
// reports.  Environment knobs:
//   OARSMTRL_MODEL        — selector checkpoint path (default models/pretrained.bin)
//   OARSMTRL_BENCH_SCALE  — extra workload multiplier (default 1; >1 = more layouts)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/oarsmtrl.hpp"
#include "nn/quant/simd.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace oar::bench {

/// `"machine": {...}` JSON fragment (no trailing comma) identifying the
/// host every BENCH_*.json was produced on: the SIMD level the runtime
/// dispatcher picked (so int8 numbers are comparable across machines),
/// hardware threads, and whether OARSMTRL_FORCE_SCALAR pinned the run.
inline std::string machine_json() {
  std::string s = "\"machine\": {\"isa\": \"";
  s += nn::simd::level_name(nn::simd::dispatch_level());
  s += "\", \"cores\": ";
  s += std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  s += ", \"forced_scalar\": ";
  s += nn::simd::force_scalar_active() ? "true" : "false";
  s += "}";
  return s;
}

/// Result of the metrics-overhead gate shared by bench_route and
/// bench_infer: median thread CPU seconds per side and the overhead
/// estimate.
struct ObsOverhead {
  double off_s = 0.0;     // metrics kill-switch off
  double on_s = 0.0;      // metrics recording (the default)
  double overhead = 0.0;  // fractional slowdown of on vs off
};

/// Thread CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Times the single-threaded `run()` with the metrics kill-switch off and
/// on, back to back, for `rounds` rounds; the side measured first swaps
/// every round.  The overhead is the median over rounds of the on/off
/// ratio.  Pairing the sides inside a round cancels frequency drift and
/// co-tenant bursts that span both, and the median ignores any single
/// lucky or unlucky sample.  (Taking the min of each side separately did
/// not: one 3%-fast outlier on the off side read as 3% overhead on code
/// with none.)  Each side is timed in the calling thread's CPU time, not
/// wall time, so time the scheduler hands to co-running processes (a
/// parallel ctest run) is not charged to either side.
template <typename Run>
ObsOverhead measure_obs_overhead(int rounds, Run&& run) {
  std::vector<double> off, on, ratio;
  for (int round = 0; round < rounds; ++round) {
    const bool off_first = (round % 2) == 0;
    double s[2] = {0.0, 0.0};  // [off, on]
    for (int side = 0; side < 2; ++side) {
      const bool measure_off = off_first == (side == 0);
      obs::set_enabled(!measure_off);
      const double start = thread_cpu_seconds();
      run();
      s[measure_off ? 0 : 1] = thread_cpu_seconds() - start;
    }
    off.push_back(s[0]);
    on.push_back(s[1]);
    ratio.push_back(s[1] / std::max(s[0], 1e-12));
  }
  obs::set_enabled(true);
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  ObsOverhead o;
  o.off_s = median(off);
  o.on_s = median(on);
  o.overhead = median(ratio) - 1.0;
  return o;
}

/// Rounds of the metrics-overhead gate.  One round's on/off ratio spreads
/// about +-4% on a shared 4-core box; the median of 31 rounds reads within
/// +-1.5% on code with no overhead (15 rounds: +-2.1%).
constexpr int kObsRounds = 31;

inline double env_scale() {
  if (const char* s = std::getenv("OARSMTRL_BENCH_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

inline std::shared_ptr<rl::SteinerSelector> bench_selector() {
  // Benches must never train for minutes: fall back to 2 quick stages.
  return core::load_or_train_pretrained(/*fallback_stages=*/2);
}

/// Cheaper Lin18 configuration so the strongest baseline fits the bench
/// budget on the larger scaled subsets.
inline steiner::Lin18Config bench_lin18_config() {
  steiner::Lin18Config cfg;
  cfg.max_evaluations_per_round = 12;
  cfg.neighbors_per_terminal = 3;
  cfg.max_rounds = 12;
  return cfg;
}

inline steiner::Liu14Config bench_liu14_config() {
  steiner::Liu14Config cfg;
  cfg.max_evaluations = 16;
  cfg.neighbors_per_terminal = 3;
  return cfg;
}

inline void print_rule(int width = 96) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// Win/loss bookkeeping for Table 2.
struct CostDuel {
  util::RunningStats base_cost;
  util::RunningStats ours_cost;
  util::RunningStats improvement_ratio;  // per-layout (base - ours) / base
  int wins = 0, losses = 0, ties = 0;

  void add(double base, double ours) {
    base_cost.add(base);
    ours_cost.add(ours);
    if (base > 0.0) improvement_ratio.add((base - ours) / base);
    const double eps = 1e-9 * std::max(base, ours);
    if (ours < base - eps) ++wins;
    else if (ours > base + eps) ++losses;
    else ++ties;
  }

  double diff_percent() const {
    return base_cost.mean() > 0.0
               ? 100.0 * (base_cost.mean() - ours_cost.mean()) / base_cost.mean()
               : 0.0;
  }
  double avg_imp_percent() const { return 100.0 * improvement_ratio.mean(); }
  double win_rate() const {
    const int n = wins + losses + ties;
    return n == 0 ? 0.0 : 100.0 * wins / n;
  }
  double loss_rate() const {
    const int n = wins + losses + ties;
    return n == 0 ? 0.0 : 100.0 * losses / n;
  }
};

}  // namespace oar::bench
