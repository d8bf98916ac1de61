#include "bench.hpp"
#include "workload.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/pretrained.hpp"
#include "experience/canonical.hpp"
#include "gen/random_layout.hpp"
#include "rl/evaluate.hpp"
#include "rl/trainer.hpp"

namespace oarbench {

using namespace oar;

// ------------------------------------------------------------------- json

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::num(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
}
void JsonObject::integer(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}
void JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
}
void JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}
void JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}
std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// ------------------------------------------------------------- statistics

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * double(values.size() - 1);
  const auto lo = std::size_t(std::floor(rank));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - double(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Tail tail_of(const std::vector<double>& values) {
  Tail t;
  t.n = values.size();
  for (const double pct : {99.0, 90.0, 75.0, 50.0}) {
    t.pct = pct;
    if (double(t.n) * (1.0 - pct / 100.0) >= double(kTailMinBeyond)) break;
  }
  t.value = percentile(values, t.pct);
  return t;
}

// ---------------------------------------------------------- process probes

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  in >> pages_total >> pages_resident;
  return double(pages_resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

std::atomic<int> g_thread_peak{0};

/// Field 20 of /proc/self/stat is num_threads.  Only async-signal-safe
/// calls (open/read/close) are used; the comm field may contain spaces, so
/// fields are counted from the last ')'.
void sample_threads(int) {
  const int saved_errno = errno;
  const int fd = ::open("/proc/self/stat", O_RDONLY);
  if (fd >= 0) {
    char buf[1024];
    const ssize_t n = ::read(fd, buf, sizeof buf - 1);
    ::close(fd);
    if (n > 0) {
      buf[n] = '\0';
      const char* p = nullptr;
      for (ssize_t i = n - 1; i >= 0; --i) {
        if (buf[i] == ')') {
          p = buf + i + 1;
          break;
        }
      }
      // After ')': field 3 (state) is the first; num_threads is field 20.
      int field = 2;
      while (p != nullptr && *p != '\0' && field < 20) {
        if (*p == ' ') ++field;
        ++p;
      }
      if (p != nullptr && field == 20) {
        int value = 0;
        while (*p >= '0' && *p <= '9') value = value * 10 + (*p++ - '0');
        int cur = g_thread_peak.load(std::memory_order_relaxed);
        while (value > cur &&
               !g_thread_peak.compare_exchange_weak(cur, value,
                                                    std::memory_order_relaxed)) {
        }
      }
    }
  }
  errno = saved_errno;
}

void set_timer(long usec) {
  itimerval tv{};
  tv.it_interval.tv_usec = usec;
  tv.it_value.tv_usec = usec;
  setitimer(ITIMER_REAL, &tv, nullptr);
}

}  // namespace

void ThreadWatch::start() {
  if (running_) return;
  g_thread_peak.store(0);
  struct sigaction sa {};
  sa.sa_handler = sample_threads;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  sample_threads(0);
  set_timer(4000);
  running_ = true;
}

void ThreadWatch::stop() {
  if (!running_) return;
  set_timer(0);
  sample_threads(0);
  running_ = false;
}

int ThreadWatch::peak() const { return g_thread_peak.load(); }

// ------------------------------------------------------- registry deltas

namespace {

const obs::CounterSample* find_counter(const obs::Snapshot& s,
                                       const std::string& name) {
  for (const auto& c : s.counters)
    if (c.name == name) return &c;
  return nullptr;
}

const obs::HistogramSample* find_hist(const obs::Snapshot& s,
                                      const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

}  // namespace

RegistryDelta::RegistryDelta()
    : before_(obs::MetricsRegistry::instance().snapshot()) {}

void RegistryDelta::finish() {
  after_ = obs::MetricsRegistry::instance().snapshot();
}

double RegistryDelta::counter(const std::string& name) const {
  const auto* a = find_counter(after_, name);
  const auto* b = find_counter(before_, name);
  return double(a ? a->value : 0) - double(b ? b->value : 0);
}

double RegistryDelta::hist_count(const std::string& name) const {
  const auto* a = find_hist(after_, name);
  const auto* b = find_hist(before_, name);
  return double(a ? a->count : 0) - double(b ? b->count : 0);
}

double RegistryDelta::hist_sum(const std::string& name) const {
  const auto* a = find_hist(after_, name);
  const auto* b = find_hist(before_, name);
  return (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
}

double RegistryDelta::hist_mean(const std::string& name) const {
  const double n = hist_count(name);
  return n > 0.0 ? hist_sum(name) / n : 0.0;
}

// ------------------------------------------------------------------ trace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

namespace {
int this_tid() { return int(::gettid()); }
}  // namespace

std::int64_t Tracer::begin(const std::string& name, std::uint64_t id,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  const double start = us(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, start, id, parent, this_tid()});
  return std::int64_t(spans_.size()) - 1;
}

void Tracer::end(std::int64_t span) {
  if (span < 0) return;
  const double t = us(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[std::size_t(span)].end_us = t;
}

std::int64_t Tracer::add(const std::string& name, Clock::time_point start,
                         Clock::time_point end, std::uint64_t id,
                         std::int64_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, us(start), us(end), id, parent, this_tid()});
  return std::int64_t(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.tid, s.start_us, std::max(0.0, s.end_us - s.start_us));
    out << "{\"name\": " << json_string(s.name) << ", \"cat\": \"oarbench\", "
        << buf << ", \"args\": {\"span\": " << i << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return bool(out);
}

// ----------------------------------------------------------------- inputs

void Digest::grid(const hanan::HananGrid& g) {
  bytes(experience::serialize_grid(g));
  for (const hanan::Vertex p : g.pins()) u64(std::uint64_t(p));
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 of seed ^ salt: distinct salts give unrelated streams.
  std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --------------------------------------------------------------- selector

std::shared_ptr<rl::SteinerSelector> train_pinned_selector(int threads) {
  auto selector =
      std::make_shared<rl::SteinerSelector>(core::pretrained_selector_config());
  rl::TrainConfig config;
  config.sizes = {{10, 10, 2}, {12, 12, 3}};
  config.layouts_per_size = 4;
  config.stages = 1;
  config.curriculum_stages = 1;
  config.epochs_per_stage = 2;
  config.batch_size = 16;
  config.mcts.iterations_per_move = 48;
  config.seed = 42;
  config.threads = threads;
  config.fit_workers = threads;
  rl::CombTrainer trainer(*selector, config);
  trainer.train();
  return selector;
}

bool calibrate_pinned_int8(rl::SteinerSelector& selector) {
  util::Rng rng(0xca11b8a7e);
  std::vector<hanan::HananGrid> grids;
  for (const rl::LayoutSizeSpec size : {rl::LayoutSizeSpec{16, 16, 4},
                                        rl::LayoutSizeSpec{32, 32, 8}}) {
    for (int i = 0; i < 4; ++i) {
      grids.push_back(gen::random_grid(rl::training_spec(size, 0.10, 3, 8), rng));
    }
  }
  std::vector<const hanan::HananGrid*> ptrs;
  for (const auto& g : grids) ptrs.push_back(&g);
  selector.calibrate_int8(ptrs);
  const rl::Int8GateReport gate = rl::evaluate_int8_gate(selector, grids);
  return gate.passed && selector.int8_active();
}

std::uint64_t weights_digest(rl::SteinerSelector& selector) {
  Digest d;
  for (const nn::Parameter* p : selector.net().parameters()) {
    d.bytes(std::string_view(reinterpret_cast<const char*>(p->value.data()),
                             std::size_t(p->value.numel()) * sizeof(float)));
  }
  return d.value();
}

std::string publish_selector(rl::SteinerSelector& selector,
                             const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/selector-" + std::to_string(::getpid()) + ".bin";
  if (!selector.save(path)) {
    throw std::runtime_error("cannot write selector file " + path);
  }
  ::setenv("OARSMTRL_MODEL", path.c_str(), 1);
  return path;
}

// ------------------------------------------------------------ workload aids

double time_median_ms(int reps, const std::function<void()>& fn) {
  fn();  // warm call: caches, arenas, lazy allocations
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point s = Clock::now();
    fn();
    ms.push_back(seconds_since(s) * 1e3);
  }
  return median(std::move(ms));
}

void parallel_indices(std::size_t n, int threads,
                      const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads && std::size_t(t) < n; ++t) helpers.emplace_back(drain);
  drain();
  for (std::thread& t : helpers) t.join();
}

}  // namespace oarbench
