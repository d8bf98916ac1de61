// Single-sample inference throughput benchmark (DESIGN.md §11).  Replays
// the MCTS hot loop — one fsp query per tree expansion, same grid, varying
// Steiner selections — and compares:
//
//   training mode: the selector with set_training(true) — full per-state
//                  feature re-encode, a heap tensor per layer and the
//                  activations retained for backward (the conv kernels
//                  are the engine's own since training runs on them),
//   engine:        the selector in inference mode (arena temporaries,
//                  fused norm/ReLU, incremental FeatureCache patching).
//
// Every state's fsp is cross-checked between the two modes to a 1e-4
// relative tolerance; a mismatch is a hard failure.  A second section runs
// whole CombMcts episodes in both modes to show the end-to-end win, and a
// third times one training sample (forward + BCE + backward) at 16x16x4
// and 32x32x8, and a fourth times each non-conv layer kind (and the
// pointwise convolutions) at the default U-Net's 32x32x8 shapes.  A size sweep then times the fp32 and int8 engines per
// voxel over H = V in {12, 16, 24, 32} and M in {3..10}: in full mode the
// fp32 ns/voxel at every M in {4..10} must stay within 1.6x of the same
// H = V at M = 8 (the paper's "any number of routing layers"; M = 3 is
// reported, not gated — ceil pooling leaves its deeper levels 2 and 1
// layers deep).  Results go to stdout and BENCH_infer.json.  `--smoke`
// shrinks the work for CI; like bench_route there is no timing assertion
// on the speedups.  A final section measures the
// observability tax (metrics kill-switch on vs off, median ratio of paired
// alternating rounds); in --smoke mode an overhead above 2% is a hard
// failure (the obs subsystem's acceptance bound).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "nn/activations.hpp"
#include "nn/conv3d.hpp"
#include "nn/group_norm.hpp"
#include "nn/inference.hpp"
#include "nn/loss.hpp"
#include "nn/pool3d.hpp"
#include "nn/residual_block.hpp"
#include "nn/quant/simd.hpp"
#include "obs/metrics.hpp"
#include "rl/evaluate.hpp"
#include "rl/selector.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace oar;
using hanan::HananGrid;
using hanan::Vertex;

HananGrid make_grid(std::int32_t dim, std::int32_t m, std::int32_t pins,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = spec.v = dim;
  spec.m = m;
  spec.min_pins = spec.max_pins = pins;
  spec.min_obstacles = spec.max_obstacles = std::max(1, dim * dim * m / 40);
  return gen::random_grid(spec, rng);
}

/// MCTS-like states: 0..budget already-selected Steiner points per state.
std::vector<std::vector<Vertex>> make_states(const HananGrid& grid, int count,
                                             util::Rng& rng) {
  const int budget = std::max(1, int(grid.pins().size()) - 2);
  std::vector<std::vector<Vertex>> out;
  out.reserve(std::size_t(count));
  for (int i = 0; i < count; ++i) {
    std::vector<Vertex> sel;
    const int want = i % (budget + 1);
    while (std::ssize(sel) < want) {
      const auto v = Vertex(rng.uniform_int(0, grid.num_vertices() - 1));
      if (!grid.is_blocked(v) && !grid.is_pin(v) &&
          std::find(sel.begin(), sel.end(), v) == sel.end()) {
        sel.push_back(v);
      }
    }
    out.push_back(std::move(sel));
  }
  return out;
}

struct FspRun {
  double seconds = 0.0;
  std::vector<std::vector<double>> fsp;  // one per state (first rep)
};

FspRun run_fsp(rl::SteinerSelector& selector, const HananGrid& grid,
               const std::vector<std::vector<Vertex>>& states, int reps) {
  FspRun run;
  run.fsp.resize(states.size());
  std::vector<double> fsp;
  util::Timer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      selector.infer_fsp_into(grid, states[i], fsp);
      if (rep == 0) run.fsp[i] = fsp;
    }
  }
  run.seconds = timer.seconds();
  return run;
}

struct SizeReport {
  std::int32_t dim = 0, layers = 0;
  double ref_ips = 0.0;     // training-mode inferences/sec
  double engine_ips = 0.0;  // inference-engine inferences/sec
  double speedup = 0.0;
  double max_rel = 0.0;  // worst fsp disagreement
};

SizeReport bench_size(std::int32_t dim, std::int32_t layers, int state_count,
                      int reps_engine, int reps_ref) {
  SizeReport rep;
  rep.dim = dim;
  rep.layers = layers;

  const HananGrid grid = make_grid(dim, layers, /*pins=*/6, /*seed=*/17);
  util::Rng rng(41);
  const auto states = make_states(grid, state_count, rng);
  rl::SteinerSelector selector;  // default UNet: base 8, depth 2

  // Warm both paths (first-touch allocations, feature-cache base build).
  selector.net().set_training(true);
  (void)run_fsp(selector, grid, {states.front()}, 1);
  selector.net().set_training(false);
  (void)run_fsp(selector, grid, {states.front()}, 1);

  selector.net().set_training(true);
  const FspRun ref = run_fsp(selector, grid, states, reps_ref);
  selector.net().set_training(false);
  const FspRun engine = run_fsp(selector, grid, states, reps_engine);

  for (std::size_t i = 0; i < states.size(); ++i) {
    if (ref.fsp[i].size() != engine.fsp[i].size()) {
      std::fprintf(stderr, "FATAL: fsp size mismatch (state %zu)\n", i);
      std::exit(1);
    }
    for (std::size_t j = 0; j < ref.fsp[i].size(); ++j) {
      const double rel = std::abs(engine.fsp[i][j] - ref.fsp[i][j]) /
                         std::max(1.0, std::abs(ref.fsp[i][j]));
      rep.max_rel = std::max(rep.max_rel, rel);
      if (rel > 1e-4) {
        std::fprintf(stderr,
                     "FATAL: fsp disagreement (state %zu vertex %zu: %g vs %g)\n",
                     i, j, engine.fsp[i][j], ref.fsp[i][j]);
        std::exit(1);
      }
    }
  }

  rep.ref_ips =
      double(states.size()) * reps_ref / std::max(ref.seconds, 1e-12);
  rep.engine_ips =
      double(states.size()) * reps_engine / std::max(engine.seconds, 1e-12);
  rep.speedup = rep.engine_ips / std::max(rep.ref_ips, 1e-12);
  return rep;
}

struct MctsReport {
  double ref_eps = 0.0;     // episodes/sec, training-mode selector
  double engine_eps = 0.0;  // episodes/sec, inference-mode selector
  double speedup = 0.0;
};

MctsReport bench_mcts(int episodes) {
  MctsReport rep;
  mcts::CombMctsConfig cfg;
  cfg.iterations_per_move = 32;
  cfg.max_children = 8;

  // Two passes over the same layouts.  initial_cost comes from the exact
  // router (selector-independent), so it must match across modes exactly.
  std::vector<double> initial_costs;
  for (const bool training : {true, false}) {
    rl::SteinerSelector selector;
    selector.net().set_training(training);
    mcts::CombMcts search(selector, cfg);
    util::Timer timer;
    for (int e = 0; e < episodes; ++e) {
      const HananGrid grid = make_grid(16, 4, 5, 0x100 + std::uint64_t(e));
      const mcts::CombMctsResult result = search.run(grid);
      if (training) {
        initial_costs.push_back(result.initial_cost);
      } else if (result.initial_cost != initial_costs[std::size_t(e)]) {
        std::fprintf(stderr, "FATAL: episode %d initial cost drift\n", e);
        std::exit(1);
      }
    }
    const double eps = double(episodes) / std::max(timer.seconds(), 1e-12);
    (training ? rep.ref_eps : rep.engine_eps) = eps;
  }
  rep.speedup = rep.engine_eps / std::max(rep.ref_eps, 1e-12);
  return rep;
}

/// Training samples/s: one sample's forward + masked BCE + backward
/// through the default selector U-Net — the unit of work each
/// rl::ParallelFitter worker repeats.
double bench_train(std::int32_t dim, std::int32_t layers, int reps) {
  const HananGrid grid = make_grid(dim, layers, /*pins=*/6, /*seed=*/17);
  rl::SteinerSelector selector;
  nn::Module& net = selector.net();
  net.set_training(true);
  const nn::Tensor input = rl::SteinerSelector::encode(grid);
  nn::Tensor target({1, grid.h_dim(), grid.v_dim(), grid.m_dim()});
  for (std::int64_t i = 0; i < target.numel(); i += 7) target[i] = 1.0f;
  nn::Tensor grad;
  const auto step = [&] {
    const nn::Tensor logits = net.forward(input);
    nn::bce_with_logits(logits, target, grad);
    net.backward(grad);
  };
  step();  // warm the per-thread kernel workspaces
  util::Timer timer;
  for (int r = 0; r < reps; ++r) step();
  return double(reps) / std::max(timer.seconds(), 1e-12);
}

/// A (C, D0, D1, D2) activation of the default U-Net at 32x32x8.
struct Volume {
  std::int32_t c, d0, d1, d2;
  std::int64_t spatial() const { return std::int64_t(d0) * d1 * d2; }
  std::vector<std::int32_t> shape() const { return {c, d0, d1, d2}; }
};

// Residual block outputs in pass order (base 8, depth 2): encoders, the
// bottleneck, decoders.  Every block runs GN+ReLU once and GN+add+ReLU once.
constexpr Volume kBlockVolumes[] = {
    {8, 32, 32, 8}, {16, 16, 16, 4}, {32, 8, 8, 2}, {16, 16, 16, 4}, {8, 32, 32, 8}};
// Upsample inputs and their targets; max-pool inputs.
constexpr Volume kUpsampleIn[] = {{32, 8, 8, 2}, {16, 16, 16, 4}};
constexpr Volume kUpsampleOut[] = {{32, 16, 16, 4}, {16, 32, 32, 8}};
constexpr Volume kPoolIn[] = {{8, 32, 32, 8}, {16, 16, 16, 4}};
// Pointwise convolutions: the five skip projections, then the head.
struct Pointwise {
  Volume in;
  std::int32_t oc;
};
constexpr Pointwise kPointwise[] = {{{7, 32, 32, 8}, 8},   {{8, 16, 16, 4}, 16},
                                    {{16, 8, 8, 2}, 32},   {{48, 16, 16, 4}, 16},
                                    {{24, 32, 32, 8}, 8},  {{8, 32, 32, 8}, 1}};

struct LayerTime {
  const char* name;
  double us = 0.0;  // median over rounds of one pass's total
};

/// Per layer kind, the time of every instance in one 32x32x8 U-Net pass of
/// the default net, single thread, median of `rounds` rounds.  Inputs are
/// mixed-sign Gaussians and every GroupNorm has a random affine.
std::vector<LayerTime> bench_layers(int rounds) {
  util::Rng rng(23);
  const auto gaussian = [&](const Volume& v) { return nn::Tensor::randn(v.shape(), rng); };
  std::vector<nn::GroupNorm> norms;
  std::vector<nn::Tensor> block_x, block_skip, block_go;
  for (const Volume& v : kBlockVolumes) {
    for (int k = 0; k < 2; ++k) {
      norms.emplace_back(v.c, nn::ResidualBlock3d::pick_groups(v.c));
      nn::GroupNorm& gn = norms.back();
      for (nn::Parameter* p : gn.parameters()) p->value = nn::Tensor::randn({v.c}, rng, 0.5f);
      block_x.push_back(gaussian(v));
      block_go.push_back(gaussian(v));
    }
    block_skip.push_back(gaussian(v));
  }
  std::vector<nn::ReLU> relus(norms.size());
  std::vector<nn::UpsampleNearest3d> ups(std::size(kUpsampleIn));
  std::vector<nn::Tensor> up_in, up_out, up_go;
  for (std::size_t i = 0; i < ups.size(); ++i) {
    const Volume& o = kUpsampleOut[i];
    ups[i].set_target(o.d0, o.d1, o.d2);
    up_in.push_back(gaussian(kUpsampleIn[i]));
    up_out.push_back(nn::Tensor(o.shape()));
    up_go.push_back(gaussian(o));
  }
  nn::MaxPool3d pool;
  std::vector<nn::Tensor> pool_in, pool_out;
  for (const Volume& v : kPoolIn) {
    pool_in.push_back(gaussian(v));
    pool_out.push_back(nn::Tensor({v.c, nn::MaxPool3d::out_dim(v.d0),
                                   nn::MaxPool3d::out_dim(v.d1), nn::MaxPool3d::out_dim(v.d2)}));
  }
  std::vector<nn::Conv3d> convs;
  std::vector<nn::Tensor> conv_in, conv_out;
  for (const Pointwise& pw : kPointwise) {
    convs.emplace_back(pw.in.c, pw.oc, 1, rng);
    conv_in.push_back(gaussian(pw.in));
    conv_out.push_back(nn::Tensor({pw.oc, pw.in.d0, pw.in.d1, pw.in.d2}));
  }
  nn::InferenceScratch arena;

  const auto volume = [](std::size_t norm) { return kBlockVolumes[norm / 2]; };
  std::vector<std::pair<const char*, std::function<void()>>> kinds = {
      {"eval_gn_relu",
       [&] {
         for (std::size_t i = 0; i < norms.size(); i += 2) {
           norms[i].infer_relu_inplace(block_x[i].data(), volume(i).spatial());
         }
       }},
      {"eval_gn_add_relu",
       [&] {
         for (std::size_t i = 1; i < norms.size(); i += 2) {
           norms[i].infer_add_relu_inplace(block_x[i].data(), block_skip[i / 2].data(),
                                           volume(i).spatial());
         }
       }},
      {"eval_upsample",
       [&] {
         for (std::size_t i = 0; i < ups.size(); ++i) {
           const Volume& v = kUpsampleIn[i];
           ups[i].infer_into(up_in[i].data(), v.c, v.d0, v.d1, v.d2, up_out[i].data());
         }
       }},
      {"eval_max_pool",
       [&] {
         for (std::size_t i = 0; i < pool_in.size(); ++i) {
           const Volume& v = kPoolIn[i];
           pool.infer_into(pool_in[i].data(), v.c, v.d0, v.d1, v.d2, pool_out[i].data());
         }
       }},
      {"eval_pointwise_conv",
       [&] {
         for (std::size_t i = 0; i < convs.size(); ++i) {
           const Volume& v = kPointwise[i].in;
           convs[i].infer_into(conv_in[i].data(), v.d0, v.d1, v.d2, arena, conv_out[i].data());
         }
       }},
      {"train_gn_fwd",
       [&] {
         for (std::size_t i = 0; i < norms.size(); ++i) (void)norms[i].forward(block_x[i]);
       }},
      {"train_gn_bwd",
       [&] {
         for (std::size_t i = 0; i < norms.size(); ++i) (void)norms[i].backward(block_go[i]);
       }},
      {"train_relu_fwd",
       [&] {
         for (std::size_t i = 0; i < relus.size(); ++i) (void)relus[i].forward(block_x[i]);
       }},
      {"train_relu_bwd",
       [&] {
         for (std::size_t i = 0; i < relus.size(); ++i) (void)relus[i].backward(block_go[i]);
       }},
      {"train_upsample_bwd",
       [&] {
         for (std::size_t i = 0; i < ups.size(); ++i) (void)ups[i].backward(up_go[i]);
       }},
  };
  for (nn::GroupNorm& gn : norms) gn.set_training(false);
  for (std::size_t i = 0; i < ups.size(); ++i) {
    ups[i].set_training(true);
    (void)ups[i].forward(up_in[i]);  // retains the input shape for backward
  }
  std::vector<std::vector<double>> samples(kinds.size());
  for (int round = -1; round < rounds; ++round) {  // round -1 warms up
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const bool training = std::strncmp(kinds[k].first, "train", 5) == 0;
      for (nn::GroupNorm& gn : norms) gn.set_training(training);
      util::Timer timer;
      kinds[k].second();
      if (round >= 0) samples[k].push_back(timer.seconds() * 1e6);
    }
  }
  std::vector<LayerTime> out;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    std::sort(samples[k].begin(), samples[k].end());
    out.push_back({kinds[k].first, samples[k][samples[k].size() / 2]});
  }
  return out;
}

struct SweepPoint {
  std::int32_t dim = 0, m = 0;
  double fp32_ns = 0.0, int8_ns = 0.0;  // per voxel, median over rounds
  double fp32_ratio = 0.0;              // fp32_ns / fp32_ns at M = 8
};

/// fsp inference on `grid` (no extra pins) repeated for at least
/// `min_seconds`, in ns per voxel.
double fsp_ns_per_voxel(rl::SteinerSelector& selector, const HananGrid& grid,
                        double min_seconds) {
  std::vector<double> fsp;
  int reps = 0;
  util::Timer timer;
  do {
    selector.infer_fsp_into(grid, {}, fsp);
    ++reps;
  } while (timer.seconds() < min_seconds);
  return timer.seconds() * 1e9 / (double(reps) * double(grid.num_vertices()));
}

constexpr double kSweepBound = 1.6;

/// fp32 and int8 ns/voxel over H = V in `dims` and M in 3..10.  Each round
/// visits every point once, alternating direction between rounds; a
/// point's figure is its median over the rounds.
std::vector<SweepPoint> bench_sweep(const std::vector<std::int32_t>& dims,
                                    int rounds, double min_seconds) {
  rl::SteinerSelector selector;  // default UNet: base 8, depth 2
  selector.net().set_training(false);
  std::vector<HananGrid> grids;
  std::vector<SweepPoint> points;
  for (const std::int32_t dim : dims) {
    for (std::int32_t m = 3; m <= 10; ++m) {
      grids.push_back(make_grid(dim, m, /*pins=*/6, /*seed=*/17));
      points.push_back({dim, m});
    }
  }
  {
    std::vector<const HananGrid*> cal;
    for (const HananGrid& g : grids) cal.push_back(&g);
    selector.calibrate_int8(cal);
  }
  using Precision = nn::InferConfig::Precision;
  const Precision precisions[] = {Precision::kFp32, Precision::kInt8};
  std::vector<std::vector<double>> samples(2 * points.size());
  for (int round = -1; round < rounds; ++round) {  // round -1 warms up
    for (std::size_t n = 0; n < points.size(); ++n) {
      const std::size_t i = round % 2 == 0 ? n : points.size() - 1 - n;
      for (std::size_t p = 0; p < 2; ++p) {
        selector.set_precision(precisions[p]);
        const double ns = fsp_ns_per_voxel(selector, grids[i], round < 0 ? 0.0 : min_seconds);
        if (round >= 0) samples[2 * i + p].push_back(ns);
      }
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].fp32_ns = median(samples[2 * i]);
    points[i].int8_ns = median(samples[2 * i + 1]);
  }
  for (SweepPoint& p : points) {
    for (const SweepPoint& ref : points) {
      if (ref.dim == p.dim && ref.m == 8) p.fp32_ratio = p.fp32_ns / ref.fp32_ns;
    }
  }
  return points;
}

/// The metrics-overhead gate on the inference-engine fsp loop (see
/// bench::measure_obs_overhead).
bench::ObsOverhead measure_obs_overhead(int state_count, int reps) {
  const HananGrid grid = make_grid(16, 4, /*pins=*/6, /*seed=*/17);
  util::Rng rng(41);
  const auto states = make_states(grid, state_count, rng);
  rl::SteinerSelector selector;
  selector.net().set_training(false);
  (void)run_fsp(selector, grid, states, 1);  // warm arena + feature cache
  return bench::measure_obs_overhead(bench::kObsRounds, [&] {
    (void)run_fsp(selector, grid, states, reps);
  });
}

struct Int8Report {
  double fp32_ips = 0.0;    // inference-engine fp32 path
  double int8_ips = 0.0;    // quantized engine, incremental accumulator
  double speedup = 0.0;
  double agreement = 0.0;   // accuracy-gate top-k agreement
  double cost_ratio = 0.0;  // accuracy-gate routed-cost ratio
  bool gate_passed = false;
  bool speed_passed = true;  // the >= 3x bound, checked in full mode only
};

/// int8 engine vs the fp32 inference engine on the paper's largest size
/// (32x32x8), same MCTS-hot-loop replay as bench_size.  The accuracy gate
/// runs first on small layouts (routing 32x32x8 both ways would dominate
/// the budget) and a failure is FATAL: a quantized path that changes
/// selections is a broken artifact, not a slow one.
Int8Report bench_int8(int state_count, int reps, bool smoke) {
  Int8Report rep;

  rl::SteinerSelector selector;  // default UNet: base 8, depth 2
  selector.net().set_training(false);

  std::vector<hanan::HananGrid> gate_grids;
  for (std::uint64_t s = 0; s < 4; ++s) {
    gate_grids.push_back(make_grid(10, 2, 5, 0x900 + s));
  }
  const HananGrid big = make_grid(32, 8, /*pins=*/6, /*seed=*/17);
  {
    std::vector<const HananGrid*> cal;
    for (const auto& g : gate_grids) cal.push_back(&g);
    cal.push_back(&big);
    selector.calibrate_int8(cal);
  }
  const rl::Int8GateReport gate = rl::evaluate_int8_gate(selector, gate_grids);
  rep.agreement = gate.mean_agreement;
  rep.cost_ratio = gate.mean_cost_ratio;
  rep.gate_passed = gate.passed;
  if (!gate.passed) {
    std::fprintf(stderr,
                 "FATAL: int8 accuracy gate failed (agreement %.3f, cost "
                 "ratio %.4f over %d layouts)\n",
                 gate.mean_agreement, gate.mean_cost_ratio, gate.count);
    std::exit(1);
  }

  util::Rng rng(41);
  const auto states = make_states(big, state_count, rng);

  selector.set_precision(nn::InferConfig::Precision::kFp32);
  (void)run_fsp(selector, big, {states.front()}, 1);  // warm fp32 path
  const FspRun fp32 = run_fsp(selector, big, states, reps);

  selector.set_precision(nn::InferConfig::Precision::kInt8);
  (void)run_fsp(selector, big, {states.front()}, 1);  // warm accumulator
  const FspRun int8 = run_fsp(selector, big, states, reps);

  rep.fp32_ips = double(states.size()) * reps / std::max(fp32.seconds, 1e-12);
  rep.int8_ips = double(states.size()) * reps / std::max(int8.seconds, 1e-12);
  rep.speedup = rep.int8_ips / std::max(rep.fp32_ips, 1e-12);

  // The >= 3x int8 speedup bound is armed in full mode only (smoke runs
  // too few reps for a stable ratio) and only when a vector level is live
  // — the scalar lane checks correctness, not throughput.
  rep.speed_passed = smoke ||
                     nn::simd::dispatch_level() == nn::simd::Level::kScalar ||
                     rep.speedup >= 3.0;
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("bench_infer: single-sample fsp inference, training mode vs "
              "inference engine%s\n",
              smoke ? " (smoke)" : "");

  // Training mode is slower, so it gets fewer reps; throughput is
  // normalized per inference either way.
  const int states = smoke ? 6 : 16;
  const int reps_engine = smoke ? 4 : 24;
  const int reps_ref = smoke ? 1 : 3;

  const SizeReport small = bench_size(16, 4, states, reps_engine, reps_ref);
  std::printf("  16x16x4 : training mode %8.1f inf/s | engine %9.1f inf/s | "
              "%5.2fx | max rel %.2e\n",
              small.ref_ips, small.engine_ips, small.speedup, small.max_rel);

  const SizeReport large = bench_size(32, 8, states, reps_engine, reps_ref);
  std::printf("  32x32x8 : training mode %8.1f inf/s | engine %9.1f inf/s | "
              "%5.2fx | max rel %.2e\n",
              large.ref_ips, large.engine_ips, large.speedup, large.max_rel);

  const MctsReport mcts_rep = bench_mcts(smoke ? 2 : 6);
  std::printf("  CombMcts 16x16x4: training mode %6.2f episodes/s | engine "
              "%6.2f episodes/s | %5.2fx\n",
              mcts_rep.ref_eps, mcts_rep.engine_eps, mcts_rep.speedup);

  const double train_small = bench_train(16, 4, smoke ? 2 : 40);
  const double train_large = bench_train(32, 8, smoke ? 1 : 8);
  std::printf("  training fwd+bwd: 16x16x4 %7.1f samples/s | 32x32x8 %6.1f "
              "samples/s (one thread)\n",
              train_small, train_large);

  const std::vector<LayerTime> layers = bench_layers(smoke ? 3 : 31);
  std::printf("  non-conv layers at 32x32x8, one pass of the default net (us, "
              "median of %d rounds):\n   ", smoke ? 3 : 31);
  std::string layers_json;
  for (const LayerTime& l : layers) {
    std::printf(" %s %.1f", l.name, l.us);
    char row[96];
    std::snprintf(row, sizeof(row), "%s\"%s\": %.1f", layers_json.empty() ? "" : ", ",
                  l.name, l.us);
    layers_json += row;
  }
  std::printf("\n");

  const std::vector<SweepPoint> sweep =
      bench_sweep(smoke ? std::vector<std::int32_t>{12}
                        : std::vector<std::int32_t>{12, 16, 24, 32},
                  smoke ? 1 : 7, smoke ? 0.0 : 0.01);
  double worst_ratio = 0.0;
  std::printf("  size sweep (ns/voxel, median of %d alternating rounds):\n", smoke ? 1 : 7);
  for (const SweepPoint& p : sweep) {
    const bool gated = p.m >= 4;
    if (gated) worst_ratio = std::max(worst_ratio, p.fp32_ratio);
    std::printf("    %2dx%2dx%-2d  fp32 %7.1f (%4.2fx of M=8%s)  int8 %7.1f\n", p.dim,
                p.dim, p.m, p.fp32_ns, p.fp32_ratio, gated ? "" : ", not gated",
                p.int8_ns);
  }
  const bool sweep_passed = worst_ratio <= kSweepBound;
  std::printf("  sweep gate: worst fp32 ratio to M=8 over M in 4..10 is %.2fx "
              "(bound %.1fx)%s\n",
              worst_ratio, kSweepBound,
              smoke ? " [smoke: not gated]" : sweep_passed ? " PASS" : " FAIL");

  const Int8Report int8 = bench_int8(states, reps_engine, smoke);
  std::printf("  int8 32x32x8    : fp32 %9.1f inf/s | int8 %9.1f inf/s | "
              "%5.2fx (%s) | gate: agreement %.3f, cost ratio %.4f\n",
              int8.fp32_ips, int8.int8_ips, int8.speedup,
              nn::simd::level_name(nn::simd::dispatch_level()),
              int8.agreement, int8.cost_ratio);

  const bench::ObsOverhead obs_tax = measure_obs_overhead(states, reps_engine);
  const double obs_inferences = double(states) * reps_engine;
  std::printf("  obs overhead    : %6.2f%% (metrics on %.1f vs off %.1f "
              "inf per thread-CPU s, median of %d rounds)%s\n",
              100.0 * obs_tax.overhead, obs_inferences / obs_tax.on_s,
              obs_inferences / obs_tax.off_s, bench::kObsRounds,
              obs::kMetricsCompiled ? "" : " [compiled out]");
  if (smoke && obs::kMetricsCompiled && obs_tax.overhead > 0.02) {
    std::fprintf(stderr,
                 "FATAL: metrics overhead %.2f%% exceeds the 2%% budget\n",
                 100.0 * obs_tax.overhead);
    return 1;
  }

  std::string sweep_json;
  for (const SweepPoint& p : sweep) {
    char row[160];
    std::snprintf(row, sizeof(row),
                  "%s\n    {\"h\": %d, \"v\": %d, \"m\": %d, \"fp32_ns_per_voxel\": %.1f, "
                  "\"int8_ns_per_voxel\": %.1f, \"fp32_ratio_to_m8\": %.3f}",
                  sweep_json.empty() ? "" : ",", p.dim, p.dim, p.m, p.fp32_ns,
                  p.int8_ns, p.fp32_ratio);
    sweep_json += row;
  }
  if (std::FILE* f = std::fopen("BENCH_infer.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"sizes\": [\n"
        "    {\"h\": 16, \"v\": 16, \"m\": 4, \"training_mode_ips\": %.1f,\n"
        "     \"engine_ips\": %.1f, \"speedup\": %.3f, \"max_rel\": %.3e},\n"
        "    {\"h\": 32, \"v\": 32, \"m\": 8, \"training_mode_ips\": %.1f,\n"
        "     \"engine_ips\": %.1f, \"speedup\": %.3f, \"max_rel\": %.3e}\n"
        "  ],\n"
        "  \"comb_mcts\": {\"h\": 16, \"v\": 16, \"m\": 4,\n"
        "    \"training_mode_eps\": %.3f, \"engine_eps\": %.3f, \"speedup\": %.3f},\n"
        "  \"train_fwd_bwd_samples_per_s\": {\"16x16x4\": %.1f, \"32x32x8\": %.1f},\n"
        "  \"layers_us_32x32x8\": {%s},\n"
        "  \"sweep\": [%s\n  ],\n"
        "  \"sweep_gate\": {\"bound\": %.2f, \"worst_fp32_ratio\": %.3f, "
        "\"passed\": %s},\n"
        "  \"obs_overhead_fraction\": %.6f,\n"
        "  %s,\n"
        "  \"smoke\": %s\n"
        "}\n",
        small.ref_ips, small.engine_ips, small.speedup, small.max_rel,
        large.ref_ips, large.engine_ips, large.speedup, large.max_rel,
        mcts_rep.ref_eps, mcts_rep.engine_eps, mcts_rep.speedup, train_small,
        train_large, layers_json.c_str(), sweep_json.c_str(), kSweepBound, worst_ratio,
        sweep_passed ? "true" : "false", obs_tax.overhead,
        bench::machine_json().c_str(),
        smoke ? "true" : "false");
    std::fclose(f);
    std::printf("  wrote BENCH_infer.json\n");
  }
  if (std::FILE* f = std::fopen("BENCH_infer_int8.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"size\": {\"h\": 32, \"v\": 32, \"m\": 8},\n"
        "  \"fp32_ips\": %.1f,\n"
        "  \"int8_ips\": %.1f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"gate\": {\"agreement\": %.4f, \"cost_ratio\": %.5f, "
        "\"passed\": %s},\n"
        "  %s,\n"
        "  \"smoke\": %s\n"
        "}\n",
        int8.fp32_ips, int8.int8_ips, int8.speedup, int8.agreement,
        int8.cost_ratio, int8.gate_passed ? "true" : "false",
        bench::machine_json().c_str(), smoke ? "true" : "false");
    std::fclose(f);
    std::printf("  wrote BENCH_infer_int8.json\n");
  }
  // The timing gates fail after the JSON is written, so a failing run
  // still leaves its numbers.
  bool failed = false;
  if (!int8.speed_passed) {
    std::fprintf(stderr, "FATAL: int8 speedup %.2fx below the 3x bound\n",
                 int8.speedup);
    failed = true;
  }
  if (!smoke && !sweep_passed) {
    std::fprintf(stderr, "FATAL: fp32 ns/voxel at some M in 4..10 exceeds %.1fx "
                 "that of M=8 (worst %.2fx)\n", kSweepBound, worst_ratio);
    failed = true;
  }
  return failed ? 1 : 0;
}
