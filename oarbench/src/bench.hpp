#pragma once

// Shared pieces of the oarbench binary: run options, the result record,
// latency statistics, process probes (RSS, thread count), deltas of the
// global obs::MetricsRegistry, the span tracer and the pinned selector
// recipe.  Each workload lives in its own source file and drives the
// library only through its public headers.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "rl/selector.hpp"
#include "util/hash.hpp"

namespace oarbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrunken inputs for the benchmark's own tests (same code paths).
  bool tiny = false;
  /// Print the inputs digest of the workload and exit (no timing).
  bool digest_only = false;
  /// Where the selector file and the chrome trace are written.
  std::string out_dir = ".bench_build/oarbench-out";
};

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered JSON object built from pre-rendered values.
class JsonObject {
 public:
  void num(const std::string& key, double value);
  void integer(const std::string& key, std::int64_t value);
  void str(const std::string& key, const std::string& value);
  void boolean(const std::string& key, bool value);
  void raw(const std::string& key, const std::string& json);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_number(double value);
std::string json_string(const std::string& s);

/// Everything one invocation prints.  `correct` is false when any output
/// check failed or the run hit a structural fault (each one is listed in
/// `problems`).
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  JsonObject provenance;

  void fault(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ------------------------------------------------------------- statistics

/// Linear-interpolated percentile (0..100) of an unsorted sample.
double percentile(std::vector<double> values, double pct);
double median(std::vector<double> values);

/// The highest percentile of the ladder 99, 90, 75, 50 with at least
/// kTailMinBeyond samples beyond it.  Twenty rather than the minimum of ten:
/// a percentile resting on ten samples spread 15-20% between seeds.
constexpr int kTailMinBeyond = 20;
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t n = 0;
};
Tail tail_of(const std::vector<double>& values);

// ---------------------------------------------------------- process probes

/// getrusage max RSS of this process, in MB.
double peak_rss_mb();
/// Current resident set size from /proc/self/statm, in MB.
double current_rss_mb();

/// Samples this process's OS thread count from a SIGALRM handler every few
/// milliseconds (no extra thread), keeping the maximum seen between
/// start() and stop().  Threads a call creates and joins internally are
/// therefore observed too.
class ThreadWatch {
 public:
  ThreadWatch() = default;
  ThreadWatch(const ThreadWatch&) = delete;
  ThreadWatch& operator=(const ThreadWatch&) = delete;
  ~ThreadWatch() { stop(); }

  void start();
  void stop();
  int peak() const;

 private:
  bool running_ = false;
};

// ------------------------------------------------------- registry deltas

/// Snapshot of the global metrics registry; differences of two snapshots
/// give per-phase counts.
class RegistryDelta {
 public:
  RegistryDelta();  // takes the "before" snapshot
  /// Takes the "after" snapshot.
  void finish();
  double counter(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  /// hist_sum / hist_count (0 when nothing was observed).
  double hist_mean(const std::string& name) const;

 private:
  oar::obs::Snapshot before_, after_;
};

// ------------------------------------------------------------------ trace

/// In-memory spans recorded around the benchmark's own calls into each
/// layer, written as a chrome trace ("X" events) at exit.  Disabled, every
/// call is a single branch.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t begin(const std::string& name, std::uint64_t id,
                     std::int64_t parent = -1);
  void end(std::int64_t span);
  /// Adds a complete span from absolute steady-clock times (used for
  /// spans reconstructed from a reply's own stage timings).
  std::int64_t add(const std::string& name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t id,
                   std::int64_t parent = -1);
  std::size_t size() const;
  /// Drops every recorded span.
  void clear();
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::int64_t parent = -1;
    int tid = 0;
  };
  Tracer();
  double us(Clock::time_point t) const;

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; no-op when tracing is off.
class Span {
 public:
  Span(const std::string& name, std::uint64_t id, std::int64_t parent = -1)
      : index_(Tracer::instance().begin(name, id, parent)) {}
  ~Span() { Tracer::instance().end(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t index() const { return index_; }

 private:
  std::int64_t index_;
};

// ----------------------------------------------------------------- inputs

/// Bytes gathered for one fnv1a64 digest (util::fnv1a64, the repo's
/// checksum).
class Digest {
 public:
  void bytes(std::string_view b) { buf_.append(b); }
  void u64(std::uint64_t v) { buf_.append(reinterpret_cast<const char*>(&v), sizeof v); }
  /// A grid's full serialization (dims, costs, blocks) and its pins.
  void grid(const oar::hanan::HananGrid& g);
  std::uint64_t value() const { return oar::util::fnv1a64(buf_); }

 private:
  std::string buf_;
};
std::string hex64(std::uint64_t v);

/// Derived stream seeds: the timed inputs and the warm-up inputs of one
/// workload come from disjoint streams of the same run seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt);

// --------------------------------------------------------------- selector

/// Threads every workload may run at once (the machine's nproc on the
/// reference box); set-up work is pinned to it.
constexpr int kThreadBudget = 4;

/// The pinned selector recipe: one curriculum stage of combinatorial MCTS
/// labels on 10x10x2 and 12x12x3 layouts from a fixed seed, fitted for two
/// epochs.  The weights do not depend on the run seed or the worker count.
std::shared_ptr<oar::rl::SteinerSelector> train_pinned_selector(int threads);

/// Calibrates the int8 engine on a pinned layout set and runs the
/// accuracy gate; returns true when the selector serves int8.
bool calibrate_pinned_int8(oar::rl::SteinerSelector& selector);

/// fnv1a64 over every parameter tensor of the selector's network.
std::uint64_t weights_digest(oar::rl::SteinerSelector& selector);

/// Saves `selector` under `dir` and points OARSMTRL_MODEL at the file, so
/// the core::Router engines load exactly these weights.  Returns the path.
std::string publish_selector(oar::rl::SteinerSelector& selector,
                             const std::string& dir);

}  // namespace oarbench
