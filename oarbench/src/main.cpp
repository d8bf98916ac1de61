// oarbench: the repository's end-to-end benchmark.
//
//   oarbench --workload serve|search|train|chip --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--digest] [--out-dir DIR]
//
// --trace 0 sets the workload up three or more times (setup_s is the
// median), runs its timed phase once and prints the seven
// end-to-end metrics.  --trace 1 is the separate traced run: a short
// count-bounded pass of every workload with spans on plus the one-at-a-time
// layer replays; it prints every per-layer metric and writes a chrome
// trace.  The last stdout line is always one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it holds the provenance block.  Exit status 0 iff correct.

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "bench_common.hpp"
#include "core/pretrained.hpp"
#include "util/logging.hpp"
#include "workload.hpp"

namespace oarbench {
namespace {

using namespace oar;

// Set-ups per end-to-end run; setup_s is their median.  A set-up shorter
// than a second (train's) is repeated until kSetupBudgetS have gone, so its
// median rests on more samples; the self-tests' tiny size takes two.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 10;
constexpr double kSetupBudgetS = 3.0;
constexpr std::size_t kTinySetupReps = 2;

// Untraced/traced pairs behind trace.overhead_frac.
constexpr int kOverheadPairs = 3;

// A seed never used while the benchmark or a change was tuned, for
// confirming a claim: pass --seed heldout.
constexpr std::uint64_t kHeldOutSeed = 0x5eed0b5e7e5ull;

const char* const kWorkloads[] = {"serve", "search", "train", "chip"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "oarbench: %s\nusage: oarbench --workload serve|search|train|chip "
               "--seed N|heldout --seconds S --trace 0|1 [--size full|tiny] "
               "[--digest] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      o.seed = v == "heldout" ? kHeldOutSeed : std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny") usage("--size must be full or tiny");
      o.tiny = v == "tiny";
    } else if (a == "--digest") {
      o.digest_only = true;
    } else if (a == "--out-dir") {
      o.out_dir = value();
    } else {
      usage("unknown argument " + a);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::unique_ptr<Workload> make(const std::string& name, const Options& o, Scale scale,
                               const SelectorSource& source) {
  if (name == "serve") return make_serve(o.seed, o.seconds, scale, source, o.out_dir);
  if (name == "search") return make_search(o.seed, o.seconds, scale, source, o.out_dir);
  if (name == "train") return make_train(o.seed, scale);
  return make_chip(o.seed, o.seconds, scale, source, o.out_dir);
}

/// Counts a phase's ops and turns its check failures, faults and any
/// thread-budget overrun into problems of the run.
void absorb(Report& rep, const PhaseOut& out, const Workload& w, const ThreadWatch& watch) {
  rep.attempted += out.attempted;
  rep.failed += out.attempted - out.ok;
  for (const std::string& f : out.faults) rep.fault(f);
  for (const std::string& f : out.check_failures) rep.fault(f);
  if (out.attempted == 0) rep.fault(w.name() + ": no op attempted");
  if (watch.peak() > w.os_threads_allowed()) {
    rep.fault(w.name() + ": " + std::to_string(watch.peak()) +
              " OS threads in the timed phase, budget " +
              std::to_string(w.os_threads_allowed()));
  }
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + json_number(v[i]);
  return s + "]";
}

/// Untraced: repeated set-ups (setup_s = median), one timed phase, seven
/// metrics.
void run_end_to_end(const Options& o, Report& rep) {
  const Scale scale = o.tiny ? Scale::kTiny : Scale::kFull;
  const SelectorSource fresh = [] { return train_pinned_selector(kThreadBudget); };
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  const auto more = [&] {
    if (o.tiny) return setup_s.size() < kTinySetupReps;
    return setup_s.size() < kSetupReps ||
           (setup_total_s < kSetupBudgetS && setup_s.size() < kMaxSetupReps);
  };
  while (more()) {
    w.reset();  // the previous set-up's threads and memory go first
    const Clock::time_point t0 = Clock::now();
    w = make(o.workload, o, scale, fresh);
    w->setup();
    setup_s.push_back(seconds_since(t0));
    setup_total_s += setup_s.back();
  }
  rep.provenance.num("peak_rss_after_setup_mb", peak_rss_mb());

  ThreadWatch watch;
  PhaseOut out = w->run(o.seconds, watch);
  absorb(rep, out, *w, watch);

  const Tail tail = tail_of(out.lat_ms);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("ok_frac", out.attempted > 0 ? double(out.ok) / double(out.attempted) : 0.0, "frac");
  rep.add("p50_ms", median(out.lat_ms), "ms");
  rep.add("tail_ms", tail.value, "ms");
  rep.add("ops_per_s", out.phase_s > 0.0 ? out.work_units / out.phase_s : 0.0, "1/s");
  rep.add("quality", out.quality, "1");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");

  JsonObject t;
  t.num("percentile", tail.pct);
  t.integer("n", std::int64_t(tail.n));
  rep.provenance.raw("tail_ms", t.dump());
  rep.provenance.raw("setup_s_samples", json_list(setup_s));
  rep.provenance.integer("threads", w->threads());
  rep.provenance.integer("os_threads_allowed", w->os_threads_allowed());
  rep.provenance.integer("os_threads_peak", watch.peak());
  rep.provenance.str("inputs_digest", hex64(w->inputs_digest()));
  rep.provenance.num("phase_s", out.phase_s);
  rep.provenance.num("work_units", out.work_units);
  rep.provenance.raw("workload_detail", out.prov.dump());
}

/// Tracing overhead of the named workload: its slice runs untraced and
/// traced on fresh set-ups of the same inputs, in pairs whose order
/// alternates (so neither side always meets the colder process), and the
/// median of the pairs' p50 ratios minus 1 is reported.  The spans these
/// passes record are dropped.
void measure_trace_overhead(const Options& o, Scale scale, const SelectorSource& source,
                            Report& rep) {
  Tracer& tracer = Tracer::instance();
  std::vector<double> ratios, p50s[2];
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double p50[2] = {0.0, 0.0};  // [untraced, traced]
    for (int k = 0; k < 2; ++k) {
      const int traced = (pair + k) % 2;
      auto w = make(o.workload, o, scale, source);
      w->setup();
      ThreadWatch watch;
      tracer.set_enabled(traced == 1);
      p50[traced] = median(w->run(o.seconds, watch).lat_ms);
      tracer.set_enabled(false);
      p50s[traced].push_back(p50[traced]);
    }
    if (p50[0] > 0.0) ratios.push_back(p50[1] / p50[0]);
  }
  tracer.clear();
  rep.add("trace.overhead_frac", ratios.empty() ? 0.0 : median(ratios) - 1.0, "frac");
  rep.provenance.raw("untraced_p50_ms", json_list(p50s[0]));
  rep.provenance.raw("traced_p50_ms", json_list(p50s[1]));
}

/// Traced: the tracing overhead of the named workload, then every
/// workload's count-bounded slice with spans on, plus the layer replays.
void run_traced(const Options& o, Report& rep) {
  std::shared_ptr<rl::SteinerSelector> trained;
  const SelectorSource copy = [&] {
    if (!trained) trained = train_pinned_selector(kThreadBudget);
    auto s = std::make_shared<rl::SteinerSelector>(trained->config());
    s->copy_weights_from(*trained);
    return s;
  };
  const Scale scale = o.tiny ? Scale::kTiny : Scale::kSlice;
  Tracer& tracer = Tracer::instance();

  measure_trace_overhead(o, scale, copy, rep);
  tracer.set_enabled(true);
  JsonObject threads;
  for (const char* name : kWorkloads) {
    const std::int64_t top = tracer.begin(std::string("workload.") + name, 0);
    auto w = make(name, o, scale, copy);
    {
      Span s("setup", 0, top);
      w->setup();
    }
    ThreadWatch watch;
    PhaseOut out;
    {
      Span s("timed_phase", 0, top);
      out = w->run(o.seconds, watch);
    }
    absorb(rep, out, *w, watch);
    threads.integer(name, watch.peak());
    for (const Metric& m : out.layer) rep.metrics.push_back(m);
    {
      Span s("replay", 0, top);
      w->replay(rep.metrics);
    }
    if (name == o.workload) rep.provenance.str("inputs_digest", hex64(w->inputs_digest()));
    rep.provenance.raw(std::string("detail_") + name, out.prov.dump());
    tracer.end(top);
  }
  tracer.set_enabled(false);

  std::filesystem::create_directories(o.out_dir);
  const std::string path = o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) +
                           ".json";
  if (!tracer.write_chrome(path)) rep.fault("cannot write chrome trace " + path);
  rep.provenance.str("chrome_trace", path);
  rep.provenance.integer("spans", std::int64_t(tracer.size()));
  rep.provenance.raw("os_threads_peak", threads.dump());
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  util::set_log_level(util::LogLevel::kWarn);

  if (o.digest_only) {
    const SelectorSource untrained = [] {
      return std::make_shared<rl::SteinerSelector>(core::pretrained_selector_config());
    };
    auto w = make(o.workload, o, o.tiny ? Scale::kTiny : Scale::kFull, untrained);
    w->setup();
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"inputs_digest\": \"%s\"}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                hex64(w->inputs_digest()).c_str());
    return 0;
  }

  Report rep;
  // machine_json() is a '"machine": {...}' fragment; keep its object.
  const std::string machine = oar::bench::machine_json();
  rep.provenance.raw("machine", machine.substr(machine.find('{')));
  rep.provenance.str("workload", o.workload);
  rep.provenance.integer("seed", std::int64_t(o.seed));
  rep.provenance.num("seconds", o.seconds);
  rep.provenance.boolean("traced", o.trace);
  rep.provenance.str("size", o.tiny ? "tiny" : "full");
  rep.provenance.str("selector", "pinned in-benchmark recipe");
  if (o.trace) {
    run_traced(o, rep);
  } else {
    run_end_to_end(o, rep);
  }
  std::error_code ec;
  std::filesystem::remove(o.out_dir + "/selector-" + std::to_string(::getpid()) + ".bin", ec);
  std::string problems = "[";
  for (std::size_t i = 0; i < rep.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(rep.problems[i]);
  }
  rep.provenance.raw("problems", problems + "]");

  for (const Metric& m : rep.metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("provenance: %s\n", rep.provenance.dump().c_str());
  JsonObject metrics;
  for (const Metric& m : rep.metrics) {
    JsonObject v;
    v.num("value", m.value);
    v.str("unit", m.unit);
    metrics.raw(m.name, v.dump());
  }
  JsonObject result;
  result.boolean("correct", rep.correct);
  result.integer("attempted", std::max<std::int64_t>(1, rep.attempted));
  result.integer("failed", rep.failed);
  result.raw("metrics", metrics.dump());
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace oarbench

int main(int argc, char** argv) {
  try {
    return oarbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oarbench: %s\n", e.what());
    return 3;
  }
}
