// int8 quantized inference battery (DESIGN.md §17): SIMD kernels vs the
// scalar reference across remainder widths / unaligned bases / saturation
// extremes, quantize round-trips, calibrator + engine properties, the
// incremental first-layer accumulator bitwise invariant, and the accuracy
// gate's fail-closed behavior.

#include "nn/quant/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gen/random_layout.hpp"
#include "nn/quant/simd.hpp"
#include "rl/evaluate.hpp"
#include "rl/selector.hpp"
#include "util/rng.hpp"

namespace oar {
namespace {

using nn::simd::Kernels;
using nn::simd::Level;

// ---------------------------------------------------------------------------
// SimdKernel — every vector level must reproduce the scalar reference bit
// for bit, and the scalar reference must match a naive dense convolution.
// ---------------------------------------------------------------------------

std::int32_t ceil4(std::int32_t c) { return (c + 3) & ~3; }

struct ConvCase {
  std::int32_t d0, d1, d2, ic, oc;
};

/// Pack dense weights w[oc][ic][tap] into the simd.hpp layout.
std::vector<std::int8_t> pack_weights(const std::vector<std::int32_t>& dense,
                                      std::int32_t taps, std::int32_t ic,
                                      std::int32_t oc) {
  const std::int32_t G = ceil4(ic) / 4;
  std::vector<std::int8_t> wp(std::size_t(taps) * G * oc * 4, 0);
  for (std::int32_t o = 0; o < oc; ++o) {
    for (std::int32_t i = 0; i < ic; ++i) {
      for (std::int32_t t = 0; t < taps; ++t) {
        wp[std::size_t(((std::int64_t(t) * G + i / 4) * oc + o) * 4 + i % 4)] =
            std::int8_t(dense[std::size_t((o * ic + i) * taps + t)]);
      }
    }
  }
  return wp;
}

/// Naive NHWC 3x3x3 "same" convolution, written independently of the
/// kernel under test.
void naive_conv3(const std::vector<std::uint8_t>& act,
                 const std::vector<std::int32_t>& dense, const ConvCase& c,
                 std::vector<std::int32_t>& out) {
  const std::int32_t icp = ceil4(c.ic);
  out.assign(std::size_t(c.d0) * c.d1 * c.d2 * c.oc, 0);
  for (std::int32_t o0 = 0; o0 < c.d0; ++o0) {
    for (std::int32_t o1 = 0; o1 < c.d1; ++o1) {
      for (std::int32_t o2 = 0; o2 < c.d2; ++o2) {
        const std::int64_t vox = (std::int64_t(o0) * c.d1 + o1) * c.d2 + o2;
        for (std::int32_t oc = 0; oc < c.oc; ++oc) {
          std::int64_t s = 0;
          for (std::int32_t k0 = 0; k0 < 3; ++k0) {
            for (std::int32_t k1 = 0; k1 < 3; ++k1) {
              for (std::int32_t k2 = 0; k2 < 3; ++k2) {
                const std::int32_t z0 = o0 + k0 - 1, z1 = o1 + k1 - 1,
                                   z2 = o2 + k2 - 1;
                if (z0 < 0 || z0 >= c.d0 || z1 < 0 || z1 >= c.d1 || z2 < 0 ||
                    z2 >= c.d2) {
                  continue;
                }
                const std::int64_t av =
                    ((std::int64_t(z0) * c.d1 + z1) * c.d2 + z2) * icp;
                const std::int32_t tap = (k0 * 3 + k1) * 3 + k2;
                for (std::int32_t i = 0; i < c.ic; ++i) {
                  s += std::int64_t(act[std::size_t(av + i)]) *
                       dense[std::size_t((oc * c.ic + i) * 27 + tap)];
                }
              }
            }
          }
          out[std::size_t(vox * c.oc + oc)] = std::int32_t(s);
        }
      }
    }
  }
}

/// Activations in an oversized buffer at +1 byte so kernels also run from
/// an unaligned base.
struct ActBuffer {
  std::vector<std::uint8_t> storage;
  std::uint8_t* data = nullptr;

  ActBuffer(std::size_t n, bool unaligned) : storage(n + 1, 0) {
    data = storage.data() + (unaligned ? 1 : 0);
  }
};

void fill_random(std::uint8_t* act, std::size_t n, std::int32_t ic,
                 std::int32_t icp, util::Rng& rng) {
  for (std::size_t v = 0; v < n / std::size_t(icp); ++v) {
    for (std::int32_t c = 0; c < icp; ++c) {
      // Padding lanes get garbage on purpose: the weight pack zeros them,
      // so they must not affect any level.
      act[v * std::size_t(icp) + std::size_t(c)] =
          c < ic ? std::uint8_t(rng.next() % 128)
                 : std::uint8_t(rng.next() % 256);
    }
  }
}

TEST(SimdKernel, ScalarMatchesNaiveConv3) {
  const Kernels* scalar = nn::simd::kernels_for(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  util::Rng rng(7);
  for (const ConvCase& c : {ConvCase{3, 4, 2, 5, 3}, ConvCase{2, 2, 2, 7, 8},
                            ConvCase{4, 3, 3, 4, 6}, ConvCase{1, 6, 1, 9, 2}}) {
    const std::int32_t icp = ceil4(c.ic);
    const std::size_t n = std::size_t(c.d0) * c.d1 * c.d2 * icp;
    ActBuffer act(n, false);
    fill_random(act.data, n, c.ic, icp, rng);
    std::vector<std::int32_t> dense(std::size_t(c.oc) * c.ic * 27);
    for (auto& w : dense) w = std::int32_t(rng.next() % 256) - 128;
    const std::vector<std::int8_t> wp = pack_weights(dense, 27, c.ic, c.oc);

    std::vector<std::int32_t> expect;
    naive_conv3(act.storage, dense, c, expect);  // storage: aligned base
    std::vector<std::int32_t> got(expect.size(), -1);
    scalar->conv3_nhwc(act.data, c.d0, c.d1, c.d2, icp, wp.data(), c.oc,
                       got.data());
    EXPECT_EQ(expect, got) << c.d0 << "x" << c.d1 << "x" << c.d2 << " ic="
                           << c.ic << " oc=" << c.oc;
  }
}

TEST(SimdKernel, VectorLevelsBitwiseEqualScalar) {
  const Kernels* scalar = nn::simd::kernels_for(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  util::Rng rng(11);
  const std::int32_t ics[] = {1, 3, 4, 5, 7, 8, 9, 12};
  const std::int32_t ocs[] = {1, 2, 5, 8, 9, 16, 17, 24};
  // D1 >= 6 reaches the four-row quad path (plus remainder rows when
  // (D1 - 2) % 4 != 0); the small shapes keep the border/remainder-only
  // code honest.
  const ConvCase dims[] = {{1, 1, 1, 0, 0},
                           {2, 3, 4, 0, 0},
                           {3, 2, 5, 0, 0},
                           {2, 6, 3, 0, 0},
                           {1, 8, 2, 0, 0},
                           {2, 9, 4, 0, 0}};

  std::int32_t levels_tested = 0;
  for (const Level level : {Level::kAvx2, Level::kAvx2Vnni, Level::kNeon}) {
    const Kernels* k = nn::simd::kernels_for(level);
    if (k == nullptr) continue;  // unsupported on this machine
    ++levels_tested;
    for (const ConvCase& d : dims) {
      for (const std::int32_t ic : ics) {
        for (const std::int32_t oc : ocs) {
          const std::int32_t icp = ceil4(ic);
          const std::int64_t S = std::int64_t(d.d0) * d.d1 * d.d2;
          const std::size_t n = std::size_t(S) * std::size_t(icp);
          ActBuffer act(n, /*unaligned=*/(ic + oc) % 2 == 1);
          fill_random(act.data, n, ic, icp, rng);
          std::vector<std::int32_t> dense(std::size_t(oc) * ic * 27);
          for (auto& w : dense) w = std::int32_t(rng.next() % 256) - 128;
          const std::vector<std::int8_t> wp = pack_weights(dense, 27, ic, oc);

          std::vector<std::int32_t> ref(std::size_t(S) * oc, 0);
          std::vector<std::int32_t> got(std::size_t(S) * oc, 1);
          scalar->conv3_nhwc(act.data, d.d0, d.d1, d.d2, icp, wp.data(), oc,
                             ref.data());
          k->conv3_nhwc(act.data, d.d0, d.d1, d.d2, icp, wp.data(), oc,
                        got.data());
          ASSERT_EQ(ref, got) << nn::simd::level_name(level) << " conv3 ic="
                              << ic << " oc=" << oc;

          // conv1 on the tap-0 slice of a fresh 1x1 pack.
          std::vector<std::int32_t> dense1(std::size_t(oc) * ic);
          for (auto& w : dense1) w = std::int32_t(rng.next() % 256) - 128;
          const std::vector<std::int8_t> wp1 = pack_weights(dense1, 1, ic, oc);
          scalar->conv1_nhwc(act.data, S, icp, wp1.data(), oc, ref.data());
          k->conv1_nhwc(act.data, S, icp, wp1.data(), oc, got.data());
          ASSERT_EQ(ref, got) << nn::simd::level_name(level) << " conv1 ic="
                              << ic << " oc=" << oc;
        }
      }
    }
  }
  // On x86 at least AVX2 must be exercised in CI images; don't fail on
  // exotic hosts, but record coverage.
  RecordProperty("vector_levels_tested", levels_tested);
}

TEST(SimdKernel, SaturationExtremesMatchScalar) {
  // act = 127 everywhere, weights = -128 / +127: the maddubs pair sums hit
  // their extreme magnitudes (2 * 127 * 128 = 32512) without saturating.
  const Kernels* scalar = nn::simd::kernels_for(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  const ConvCase c{3, 3, 2, 8, 16};
  const std::int32_t icp = ceil4(c.ic);
  const std::int64_t S = std::int64_t(c.d0) * c.d1 * c.d2;
  ActBuffer act(std::size_t(S) * icp, false);
  std::memset(act.data, 127, std::size_t(S) * icp);
  for (const std::int32_t wval : {-128, 127}) {
    std::vector<std::int32_t> dense(std::size_t(c.oc) * c.ic * 27, wval);
    const std::vector<std::int8_t> wp = pack_weights(dense, 27, c.ic, c.oc);
    std::vector<std::int32_t> expect;
    std::vector<std::uint8_t> plain(act.data, act.data + std::size_t(S) * icp);
    naive_conv3(plain, dense, c, expect);
    std::vector<std::int32_t> ref(expect.size(), 0);
    scalar->conv3_nhwc(act.data, c.d0, c.d1, c.d2, icp, wp.data(), c.oc,
                       ref.data());
    ASSERT_EQ(expect, ref);
    for (const Level level : {Level::kAvx2, Level::kAvx2Vnni, Level::kNeon}) {
      const Kernels* k = nn::simd::kernels_for(level);
      if (k == nullptr) continue;
      std::vector<std::int32_t> got(expect.size(), 0);
      k->conv3_nhwc(act.data, c.d0, c.d1, c.d2, icp, wp.data(), c.oc,
                    got.data());
      EXPECT_EQ(expect, got) << nn::simd::level_name(level) << " w=" << wval;
    }
  }
}

TEST(SimdKernel, ChooseLevelPolicy) {
  using nn::simd::choose_level;
  // Force-scalar wins over everything.
  EXPECT_EQ(choose_level("1", "vnni", true, true, false), Level::kScalar);
  EXPECT_EQ(choose_level("yes", nullptr, true, false, false), Level::kScalar);
  // "0" and unset are not forcing.
  EXPECT_EQ(choose_level("0", nullptr, true, false, false), Level::kAvx2);
  EXPECT_EQ(choose_level(nullptr, nullptr, true, true, false),
            Level::kAvx2Vnni);
  EXPECT_EQ(choose_level(nullptr, nullptr, false, false, true), Level::kNeon);
  EXPECT_EQ(choose_level(nullptr, nullptr, false, false, false),
            Level::kScalar);
  // Explicit requests, honored only when supported.
  EXPECT_EQ(choose_level(nullptr, "scalar", true, true, false), Level::kScalar);
  EXPECT_EQ(choose_level(nullptr, "avx2", true, true, false), Level::kAvx2);
  EXPECT_EQ(choose_level(nullptr, "vnni", true, false, false), Level::kAvx2);
  EXPECT_EQ(choose_level(nullptr, "bogus", true, true, false),
            Level::kAvx2Vnni);
  // dispatch() always yields a usable table.
  EXPECT_NE(nn::simd::kernels_for(nn::simd::dispatch_level()), nullptr);
}

// ---------------------------------------------------------------------------
// QuantPack — quantize/dequantize round-trip properties.
// ---------------------------------------------------------------------------

TEST(QuantPack, RoundTripWithinHalfStep) {
  util::Rng rng(3);
  for (std::int32_t trial = 0; trial < 50; ++trial) {
    const float mx = 0.01f + 4.0f * float(rng.uniform());
    const float inv = 127.0f / mx, scale = mx / 127.0f;
    for (std::int32_t i = 0; i <= 100; ++i) {
      const float x = mx * float(i) / 100.0f;
      const std::uint8_t q = nn::quant::quantize_u8(x, inv);
      const float back = nn::quant::dequantize_u8(q, scale);
      EXPECT_LE(std::abs(back - x), scale * 0.5f + 1e-6f)
          << "x=" << x << " max=" << mx;
    }
    // Out-of-range clamps.
    EXPECT_EQ(nn::quant::quantize_u8(mx * 2.0f, inv), 127);
    EXPECT_EQ(nn::quant::quantize_u8(-1.0f, inv), 0);
    EXPECT_EQ(nn::quant::quantize_u8(0.0f, inv), 0);
    EXPECT_EQ(nn::quant::quantize_u8(mx, inv), 127);
  }
}

TEST(QuantPack, QuantizeIsMonotone) {
  const float inv = 127.0f / 2.5f;
  std::uint8_t prev = 0;
  for (std::int32_t i = 0; i <= 1000; ++i) {
    const std::uint8_t q = nn::quant::quantize_u8(2.5f * float(i) / 1000.0f, inv);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

// ---------------------------------------------------------------------------
// Calibrator / engine / accumulator / gate on real selectors.
// ---------------------------------------------------------------------------

rl::SelectorConfig tiny_config(std::int32_t depth = 1) {
  rl::SelectorConfig cfg;
  cfg.unet.in_channels = 7;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = depth;
  cfg.unet.seed = 11;
  return cfg;
}

hanan::HananGrid small_grid(std::uint64_t seed, std::int32_t h = 6,
                            std::int32_t v = 6, std::int32_t m = 2) {
  util::Rng rng(seed);
  gen::RandomGridSpec spec;
  spec.h = h;
  spec.v = v;
  spec.m = m;
  spec.min_pins = 4;
  spec.max_pins = 5;
  spec.min_obstacles = 2;
  spec.max_obstacles = 3;
  return gen::random_grid(spec, rng);
}

std::vector<float> encode_floats(const hanan::HananGrid& grid,
                                 const std::vector<hanan::Vertex>& pins) {
  std::vector<float> f(std::size_t(hanan::kNumFeatureChannels) * grid.h_dim() *
                       grid.v_dim() * grid.m_dim());
  hanan::encode_features_into(grid, pins, f.data());
  return f;
}

TEST(QuantCalibrator, ThrowsWithoutSamples) {
  rl::SteinerSelector selector(tiny_config());
  nn::quant::QuantCalibrator cal(selector.net());
  EXPECT_EQ(cal.samples(), 0);
  EXPECT_THROW((void)cal.finish(), std::logic_error);
}

TEST(QuantCalibrator, EmitsWiredPack) {
  rl::SteinerSelector selector(tiny_config(2));
  const hanan::HananGrid grid = small_grid(21, 8, 8, 3);
  nn::quant::QuantCalibrator cal(selector.net());
  const std::vector<float> f = encode_floats(grid, {});
  cal.observe(f.data(), grid.h_dim(), grid.v_dim(), grid.m_dim());
  EXPECT_EQ(cal.samples(), 1);
  auto engine = cal.finish();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->level(), nn::simd::dispatch_level());
  EXPECT_EQ(engine->input_icp(), 8);  // 7 channels padded to 8
  // Pins exist in the calibration layout, so channel 0 spans [0, 1] and a
  // pin flip quantizes to full scale.
  EXPECT_EQ(engine->quantized_one(0), 127);
  EXPECT_EQ(engine->pin_delta().size(),
            std::size_t(27) * std::size_t(engine->first_layer_oc()));
}

TEST(QuantEngine, Int8TracksFp32) {
  rl::SelectorConfig cfg = tiny_config(2);
  rl::SteinerSelector selector(cfg);
  const hanan::HananGrid grid = small_grid(33, 10, 10, 3);

  const std::vector<double> fp32 = selector.infer_fsp(grid);
  selector.calibrate_int8({&grid});
  ASSERT_TRUE(selector.int8_active());
  const std::vector<double> int8 = selector.infer_fsp(grid);
  ASSERT_EQ(fp32.size(), int8.size());
  double max_diff = 0.0, mean_diff = 0.0;
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    EXPECT_TRUE(std::isfinite(int8[i]));
    EXPECT_GE(int8[i], 0.0);
    EXPECT_LE(int8[i], 1.0);
    const double d = std::abs(int8[i] - fp32[i]);
    max_diff = std::max(max_diff, d);
    mean_diff += d;
  }
  mean_diff /= double(fp32.size());
  EXPECT_LT(max_diff, 0.1) << "int8 diverged from fp32";
  EXPECT_LT(mean_diff, 0.02);
}

TEST(QuantEngine, IncrementalAccumulatorBitwiseEqualsFromScratch) {
  rl::SteinerSelector selector(tiny_config(2));
  const hanan::HananGrid grid_a = small_grid(5, 8, 8, 2);
  const hanan::HananGrid grid_b = small_grid(6, 7, 9, 3);
  selector.calibrate_int8({&grid_a, &grid_b});
  ASSERT_TRUE(selector.int8_active());

  util::Rng rng(99);
  std::vector<double> via_patch, from_scratch;
  for (std::int32_t episode = 0; episode < 24; ++episode) {
    // Alternate grids to exercise accumulator rebuilds mid-stream.
    const hanan::HananGrid& grid = (episode % 5 == 4) ? grid_b : grid_a;
    // Random pin deltas, intentionally allowing duplicates and existing
    // base pins (set semantics must keep them exact).
    std::vector<hanan::Vertex> extra;
    const std::int32_t n_extra = std::int32_t(rng.next() % 5);
    for (std::int32_t i = 0; i < n_extra; ++i) {
      extra.push_back(
          hanan::Vertex(rng.uniform_int(0, grid.num_vertices() - 1)));
    }
    if (n_extra > 2) extra.push_back(extra.front());     // duplicate
    if (episode % 3 == 0 && !grid.pins().empty()) {
      extra.push_back(grid.pins().front());              // base pin
    }

    // Patched incremental path (selector caches the first-layer state).
    selector.infer_fsp_into(grid, extra, via_patch);
    // From-scratch path on identical feature bits.
    const std::vector<float> f = encode_floats(grid, extra);
    selector.int8_engine()->infer_fsp_from_features(
        f.data(), grid.h_dim(), grid.v_dim(), grid.m_dim(), from_scratch);

    ASSERT_EQ(via_patch.size(), from_scratch.size());
    for (std::size_t i = 0; i < via_patch.size(); ++i) {
      ASSERT_EQ(via_patch[i], from_scratch[i])
          << "episode " << episode << " vertex " << i << " — incremental "
          << "accumulator diverged bitwise";
    }
  }
}

TEST(QuantEngine, ScratchStopsGrowingOnceWarm) {
  rl::SteinerSelector selector(tiny_config(2));
  const hanan::HananGrid grid = small_grid(12, 9, 9, 3);
  selector.calibrate_int8({&grid});
  std::vector<double> out;
  for (std::int32_t i = 0; i < 3; ++i) {
    selector.infer_fsp_into(grid, {grid.pins().empty() ? 0 : 1}, out);
  }
  const std::uint64_t warm = selector.int8_engine()->scratch_grow_events();
  for (std::int32_t i = 0; i < 10; ++i) {
    selector.infer_fsp_into(grid, {hanan::Vertex(i)}, out);
  }
  EXPECT_EQ(selector.int8_engine()->scratch_grow_events(), warm)
      << "engine allocated after warmup";
}

TEST(QuantEngine, WeightReloadInvalidatesPack) {
  rl::SteinerSelector selector(tiny_config());
  const hanan::HananGrid grid = small_grid(17);
  selector.calibrate_int8({&grid});
  ASSERT_NE(selector.int8_engine(), nullptr);
  ASSERT_TRUE(selector.int8_active());

  const std::string path = "test_quant_reload.bin";
  ASSERT_TRUE(selector.save(path));
  ASSERT_TRUE(selector.load(path));
  std::remove(path.c_str());

  EXPECT_EQ(selector.int8_engine(), nullptr);
  EXPECT_FALSE(selector.int8_active());
  // fsp queries silently serve fp32 again.
  const std::vector<double> fsp = selector.infer_fsp(grid);
  EXPECT_EQ(fsp.size(), std::size_t(grid.num_vertices()));
}

TEST(Int8Gate, ThrowsWithoutEngine) {
  rl::SteinerSelector selector(tiny_config());
  EXPECT_THROW((void)rl::evaluate_int8_gate(selector, {}), std::logic_error);
}

TEST(Int8Gate, LenientThresholdsPass) {
  rl::SelectorConfig cfg = tiny_config();
  cfg.infer.int8_min_agreement = 0.0;
  cfg.infer.int8_max_cost_ratio = 1e9;
  rl::SteinerSelector selector(cfg);
  std::vector<hanan::HananGrid> grids;
  grids.push_back(small_grid(51));
  grids.push_back(small_grid(52));
  selector.calibrate_int8({&grids[0], &grids[1]});

  const rl::Int8GateReport report = rl::evaluate_int8_gate(selector, grids);
  EXPECT_GT(report.count, 0);
  EXPECT_TRUE(report.passed);
  EXPECT_FALSE(report.fell_back);
  EXPECT_TRUE(selector.int8_active());  // stayed on int8
  EXPECT_GE(report.mean_agreement, 0.0);
  EXPECT_GT(report.mean_cost_ratio, 0.0);
}

TEST(Int8Gate, EmptySuiteFailsClosed) {
  rl::SteinerSelector selector(tiny_config());
  const hanan::HananGrid grid = small_grid(61);
  selector.calibrate_int8({&grid});
  ASSERT_TRUE(selector.int8_active());

  // No usable layouts -> no evidence -> the gate fails and (fallback on)
  // the selector drops to fp32.
  const rl::Int8GateReport report = rl::evaluate_int8_gate(selector, {});
  EXPECT_EQ(report.count, 0);
  EXPECT_FALSE(report.passed);
  EXPECT_TRUE(report.fell_back);
  EXPECT_FALSE(selector.int8_active());
  EXPECT_NE(selector.int8_engine(), nullptr);  // pack retained for retry
}

}  // namespace
}  // namespace oar
