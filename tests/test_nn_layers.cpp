// Finite-difference gradient verification of every hand-written backward
// pass, shape/semantics checks per layer, and the Conv3d kernels against a
// scalar reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "nn/activations.hpp"
#include "nn/conv3d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/group_norm.hpp"
#include "nn/inference.hpp"
#include "nn/linear.hpp"
#include "nn/pool3d.hpp"
#include "nn/residual_block.hpp"
#include "nn/value_net.hpp"

namespace oar::nn {
namespace {

Tensor random_input(std::vector<std::int32_t> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 1.0f);
}

Tensor random_weights_like(const Tensor& out, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(out.shape(), rng, 1.0f);
}

template <typename M>
void expect_gradcheck_ok(M& module, const Tensor& input, std::uint64_t seed) {
  Tensor out = module.forward(input);
  const Tensor weights = random_weights_like(out, seed);
  util::Rng rng(seed ^ 0xabcull);
  const GradCheckResult r = grad_check(module, input, weights, rng);
  EXPECT_TRUE(r.ok) << "max_rel_error=" << r.max_rel_error
                    << " max_abs_error=" << r.max_abs_error;
}

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor out = relu.forward(Tensor::from({-1, 0, 2}));
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(ReLULayer, BackwardMasks) {
  ReLU relu;
  relu.forward(Tensor::from({-1, 3}));
  const Tensor grad = relu.backward(Tensor::from({5, 5}));
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 5.0f);
}

TEST(SigmoidLayer, ForwardValues) {
  Sigmoid sig;
  const Tensor out = sig.forward(Tensor::from({0.0f, 100.0f, -100.0f}));
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  EXPECT_NEAR(out[2], 0.0f, 1e-6);
}

TEST(SigmoidLayer, GradCheck) {
  Sigmoid sig;
  const Tensor input = random_input({2, 3, 2, 2}, 3);
  expect_gradcheck_ok(sig, input, 4);
}

class Conv3dGradTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t, std::int32_t>> {};

TEST_P(Conv3dGradTest, GradCheck) {
  const auto [in_c, out_c, kernel] = GetParam();
  util::Rng rng(7);
  Conv3d conv(in_c, out_c, kernel, rng);
  const Tensor input = random_input({in_c, 3, 4, 2}, 11);
  expect_gradcheck_ok(conv, input, 13);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv3dGradTest,
                         ::testing::Values(std::tuple{1, 1, 3}, std::tuple{2, 3, 3},
                                           std::tuple{3, 2, 1}, std::tuple{4, 4, 1}));

TEST(Conv3dLayer, SameSizeOutputWithDefaultPadding) {
  util::Rng rng(1);
  Conv3d conv(2, 5, 3, rng);
  const Tensor out = conv.forward(random_input({2, 4, 6, 3}, 2));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{5, 4, 6, 3}));
}

TEST(Conv3dLayer, IdentityKernelReproducesInput) {
  util::Rng rng(1);
  Conv3d conv(1, 1, 1, rng);
  conv.weight().value.fill(1.0f);
  conv.bias().value.fill(0.0f);
  const Tensor input = random_input({1, 2, 2, 2}, 5);
  const Tensor out = conv.forward(input);
  for (std::int64_t i = 0; i < input.numel(); ++i) EXPECT_FLOAT_EQ(out[i], input[i]);
}

// ---------------------------------------------------------------------------
// Scalar reference Conv3d: the original single-sample training loops, kept
// here as the oracle for the tiled forward and the vectorized backward.
// Forward accumulates in float in (ic, k0, k1, k2) order; backward sums the
// weight and bias gradients in double.

struct ConvDims {
  std::int32_t D0, D1, D2, O0, O1, O2;
};

ConvDims conv_dims(const Conv3d& conv, const Tensor& input) {
  const std::int32_t p = conv.padding(), k = conv.kernel();
  return {input.shape(1), input.shape(2), input.shape(3),
          input.shape(1) + 2 * p - k + 1, input.shape(2) + 2 * p - k + 1,
          input.shape(3) + 2 * p - k + 1};
}

Tensor reference_conv_forward(const Conv3d& conv, const Tensor& input) {
  const auto [D0, D1, D2, O0, O1, O2] = conv_dims(conv, input);
  const std::int32_t IC = conv.in_channels(), OC = conv.out_channels();
  const std::int32_t kernel = conv.kernel(), padding = conv.padding();
  Tensor out({OC, O0, O1, O2});
  const float* in = input.data();
  const float* w = conv.weight().value.data();
  float* o = out.data();

  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;
  const std::int64_t out_plane = std::int64_t(O1) * O2;
  const std::int64_t out_chan = std::int64_t(O0) * out_plane;
  const std::int64_t w_k3 = std::int64_t(kernel) * kernel * kernel;
  const std::int64_t w_chan = std::int64_t(IC) * w_k3;

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    const float b = conv.bias().value[oc];
    float* obase = o + oc * out_chan;
    for (std::int64_t i = 0; i < out_chan; ++i) obase[i] = b;
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float* ibase = in + ic * in_chan;
      const float* wbase = w + oc * w_chan + ic * w_k3;
      for (std::int32_t k0 = 0; k0 < kernel; ++k0) {
        for (std::int32_t k1 = 0; k1 < kernel; ++k1) {
          for (std::int32_t k2 = 0; k2 < kernel; ++k2) {
            const float wv = wbase[(std::int64_t(k0) * kernel + k1) * kernel + k2];
            const std::int32_t i0_lo = std::max(0, padding - k0);
            const std::int32_t i0_hi = std::min(O0, D0 + padding - k0);
            const std::int32_t i1_lo = std::max(0, padding - k1);
            const std::int32_t i1_hi = std::min(O1, D1 + padding - k1);
            const std::int32_t i2_lo = std::max(0, padding - k2);
            const std::int32_t i2_hi = std::min(O2, D2 + padding - k2);
            for (std::int32_t o0 = i0_lo; o0 < i0_hi; ++o0) {
              const std::int32_t z0 = o0 + k0 - padding;
              for (std::int32_t o1 = i1_lo; o1 < i1_hi; ++o1) {
                const std::int32_t z1 = o1 + k1 - padding;
                const float* irow = ibase + std::int64_t(z0) * in_plane +
                                    std::int64_t(z1) * D2 + (i2_lo + k2 - padding);
                float* orow = obase + std::int64_t(o0) * out_plane +
                              std::int64_t(o1) * O2 + i2_lo;
                for (std::int32_t t = 0; t < i2_hi - i2_lo; ++t) orow[t] += wv * irow[t];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

struct ConvGrads {
  Tensor input, weight, bias;
};

ConvGrads reference_conv_backward(const Conv3d& conv, const Tensor& input,
                                  const Tensor& grad_output) {
  const auto [D0, D1, D2, O0, O1, O2] = conv_dims(conv, input);
  const std::int32_t IC = conv.in_channels(), OC = conv.out_channels();
  const std::int32_t kernel = conv.kernel(), padding = conv.padding();
  ConvGrads g{Tensor(input.shape()), Tensor(conv.weight().value.shape()),
              Tensor({OC})};
  const float* in = input.data();
  const float* go = grad_output.data();
  const float* w = conv.weight().value.data();
  float* gw = g.weight.data();
  float* gi = g.input.data();

  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;
  const std::int64_t out_plane = std::int64_t(O1) * O2;
  const std::int64_t out_chan = std::int64_t(O0) * out_plane;
  const std::int64_t w_k3 = std::int64_t(kernel) * kernel * kernel;
  const std::int64_t w_chan = std::int64_t(IC) * w_k3;

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    const float* gobase = go + oc * out_chan;
    double gbs = 0.0;
    for (std::int64_t i = 0; i < out_chan; ++i) gbs += gobase[i];
    g.bias[oc] = float(gbs);
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float* ibase = in + ic * in_chan;
      float* gibase = gi + ic * in_chan;
      const float* wbase = w + oc * w_chan + ic * w_k3;
      float* gwbase = gw + oc * w_chan + ic * w_k3;
      for (std::int32_t k0 = 0; k0 < kernel; ++k0) {
        for (std::int32_t k1 = 0; k1 < kernel; ++k1) {
          for (std::int32_t k2 = 0; k2 < kernel; ++k2) {
            const std::int64_t widx = (std::int64_t(k0) * kernel + k1) * kernel + k2;
            const float wv = wbase[widx];
            double gws = 0.0;
            const std::int32_t i0_lo = std::max(0, padding - k0);
            const std::int32_t i0_hi = std::min(O0, D0 + padding - k0);
            const std::int32_t i1_lo = std::max(0, padding - k1);
            const std::int32_t i1_hi = std::min(O1, D1 + padding - k1);
            const std::int32_t i2_lo = std::max(0, padding - k2);
            const std::int32_t i2_hi = std::min(O2, D2 + padding - k2);
            for (std::int32_t o0 = i0_lo; o0 < i0_hi; ++o0) {
              const std::int32_t z0 = o0 + k0 - padding;
              for (std::int32_t o1 = i1_lo; o1 < i1_hi; ++o1) {
                const std::int32_t z1 = o1 + k1 - padding;
                const std::int64_t ioff = std::int64_t(z0) * in_plane +
                                          std::int64_t(z1) * D2 + (i2_lo + k2 - padding);
                const float* gorow = gobase + std::int64_t(o0) * out_plane +
                                     std::int64_t(o1) * O2 + i2_lo;
                for (std::int32_t t = 0; t < i2_hi - i2_lo; ++t) {
                  gws += double(gorow[t]) * ibase[ioff + t];
                  gibase[ioff + t] += wv * gorow[t];
                }
              }
            }
            gwbase[widx] = float(gws);
          }
        }
      }
    }
  }
  return g;
}

/// Every element within 1e-5 of the reference, relative to the reference
/// tensor's largest magnitude.
void expect_close_to_reference(const Tensor& actual, const Tensor& ref,
                               const char* what) {
  ASSERT_EQ(actual.shape(), ref.shape()) << what;
  float scale = 1e-30f;
  for (std::int64_t i = 0; i < ref.numel(); ++i) scale = std::max(scale, std::abs(ref[i]));
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_LE(std::abs(actual[i] - ref[i]), 1e-5f * scale)
        << what << " element " << i << ": " << actual[i] << " vs " << ref[i];
  }
}

/// Fills the thread's kernel workspaces with NaN so a kernel that reads a
/// stale workspace entry instead of writing it first shows up as NaN.
void poison_conv_workspaces() {
  InferenceScratch& ws = local_inference_scratch();
  const std::size_t n = 1 << 16;
  for (float* p : {ws.wt(n), ws.grad_t(n)}) {
    std::fill(p, p + n, std::numeric_limits<float>::quiet_NaN());
  }
}

/// Forward, then backward twice, against the scalar reference.  The
/// parameter gradients start from zero, so after two backwards they must
/// be exactly twice the first backward's.
void expect_conv_matches_reference(std::int32_t ic, std::int32_t oc,
                                   std::int32_t kernel, std::int32_t pad,
                                   std::vector<std::int32_t> dims,
                                   std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "IC=" << ic << " OC=" << oc << " k=" << kernel
                                    << " pad=" << pad << " D=" << dims[0] << "x"
                                    << dims[1] << "x" << dims[2]);
  util::Rng rng(seed);
  Conv3d conv(ic, oc, kernel, rng, pad);
  conv.bias().value = Tensor::randn({oc}, rng, 0.5f);
  const Tensor input = random_input({ic, dims[0], dims[1], dims[2]}, seed + 1);

  poison_conv_workspaces();
  const Tensor out = conv.forward(input);
  expect_close_to_reference(out, reference_conv_forward(conv, input), "forward");

  const Tensor grad_out = random_weights_like(out, seed + 2);
  const ConvGrads ref = reference_conv_backward(conv, input, grad_out);
  poison_conv_workspaces();
  const Tensor grad_in = conv.backward(grad_out);
  expect_close_to_reference(grad_in, ref.input, "dX");
  expect_close_to_reference(conv.weight().grad, ref.weight, "dW");
  expect_close_to_reference(conv.bias().grad, ref.bias, "db");

  const Tensor w1 = conv.weight().grad, b1 = conv.bias().grad;
  poison_conv_workspaces();
  const Tensor grad_in2 = conv.backward(grad_out);
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    ASSERT_EQ(grad_in2[i], grad_in[i]) << "dX element " << i;
  }
  for (std::int64_t i = 0; i < w1.numel(); ++i) {
    ASSERT_EQ(conv.weight().grad[i], 2.0f * w1[i]) << "dW element " << i;
  }
  for (std::int64_t i = 0; i < b1.numel(); ++i) {
    ASSERT_EQ(conv.bias().grad[i], 2.0f * b1[i]) << "db element " << i;
  }
}

// Channel counts cover one, part of, exactly and several 8-lane vectors
// (5, 7, 12 run lane-padded); extents cover every line that is a single
// chunk (1..8) and lines of an 8-voxel chunk plus the rest (9, 10).
constexpr std::int32_t kOracleChannels[] = {1, 5, 7, 8, 12, 16, 24, 32, 48};
constexpr std::int32_t kOracleDepths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

TEST(Conv3dOracle, EveryChannelPairSameConv) {
  // 3x3x3 same-padding: the U-Net's shape, over every IC x OC pair; the
  // layer extent cycles through the list so each pair meets a different
  // chunking of the line.
  std::size_t n = 0;
  for (const std::int32_t ic : kOracleChannels) {
    for (const std::int32_t oc : kOracleChannels) {
      const std::int32_t d2 = kOracleDepths[n % std::size(kOracleDepths)];
      expect_conv_matches_reference(ic, oc, 3, 1, {3, 4, d2}, 100 + n);
      ++n;
    }
  }
}

TEST(Conv3dOracle, EveryKernelPaddingAndDepth) {
  // Kernel 1/3/5 at every padding 0..k-1 and every layer extent, with the
  // channel pairs of the U-Net's layers and their input gradients.
  const std::pair<std::int32_t, std::int32_t> pairs[] = {
      {7, 8}, {8, 16}, {48, 16}, {24, 8}, {16, 32}, {1, 7}, {32, 48}, {5, 12}, {12, 5}};
  std::size_t n = 0;
  for (const std::int32_t kernel : {1, 3, 5}) {
    for (std::int32_t pad = 0; pad < kernel; ++pad) {
      for (const std::int32_t d2 : kOracleDepths) {
        if (d2 + 2 * pad - kernel + 1 < 1) continue;  // no output voxel
        const auto [ic, oc] = pairs[n % std::size(pairs)];
        expect_conv_matches_reference(ic, oc, kernel, pad, {5, 6, d2}, 300 + n);
        ++n;
      }
    }
  }
  EXPECT_GT(n, 40u);
}

TEST(Conv3dOracle, UNetLayerShapes) {
  // The U-Net's own convolutions at a 16x16x4 layout: level 0 (16x16x4),
  // level 1 (8x8x2) and the bottleneck (4x4x1).
  expect_conv_matches_reference(7, 8, 3, 1, {16, 16, 4}, 501);
  expect_conv_matches_reference(24, 8, 3, 1, {16, 16, 4}, 502);
  expect_conv_matches_reference(48, 16, 3, 1, {8, 8, 2}, 503);
  expect_conv_matches_reference(16, 32, 3, 1, {4, 4, 1}, 504);
  expect_conv_matches_reference(24, 8, 1, 0, {16, 16, 4}, 505);
  expect_conv_matches_reference(8, 1, 1, 0, {16, 16, 4}, 506);
}

TEST(GroupNormLayer, NormalizesPerGroup) {
  GroupNorm gn(4, 2);
  const Tensor input = random_input({4, 2, 2, 2}, 9);
  const Tensor out = gn.forward(input);
  // Each group of 2 channels x 8 voxels has ~zero mean, ~unit variance.
  for (int g = 0; g < 2; ++g) {
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < 16; ++i) {
      const float v = out[g * 16 + i];
      sum += v;
      sum_sq += double(v) * v;
    }
    EXPECT_NEAR(sum / 16.0, 0.0, 1e-5);
    EXPECT_NEAR(sum_sq / 16.0, 1.0, 1e-3);
  }
}

class GroupNormGradTest
    : public ::testing::TestWithParam<std::pair<std::int32_t, std::int32_t>> {};

TEST_P(GroupNormGradTest, GradCheck) {
  const auto [channels, groups] = GetParam();
  GroupNorm gn(channels, groups);
  const Tensor input = random_input({channels, 2, 3, 2}, 21);
  expect_gradcheck_ok(gn, input, 22);
}

INSTANTIATE_TEST_SUITE_P(Configs, GroupNormGradTest,
                         ::testing::Values(std::pair{2, 1}, std::pair{4, 2},
                                           std::pair{4, 4}, std::pair{6, 3}));

TEST(MaxPoolLayer, CeilModeOddDims) {
  MaxPool3d pool;
  const Tensor out = pool.forward(random_input({2, 5, 3, 1}, 31));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{2, 3, 2, 1}));
}

TEST(MaxPoolLayer, TakesWindowMaximum) {
  MaxPool3d pool;
  Tensor input({1, 2, 2, 1});
  input[0] = 1.0f;
  input[1] = 9.0f;
  input[2] = -3.0f;
  input[3] = 4.0f;
  const Tensor out = pool.forward(input);
  EXPECT_EQ(out.numel(), 1);
  EXPECT_FLOAT_EQ(out[0], 9.0f);
}

TEST(MaxPoolLayer, GradCheck) {
  MaxPool3d pool;
  const Tensor input = random_input({2, 4, 3, 2}, 41);
  expect_gradcheck_ok(pool, input, 42);
}

TEST(UpsampleLayer, ReachesTargetSize) {
  UpsampleNearest3d up;
  up.set_target(5, 4, 3);
  const Tensor out = up.forward(random_input({2, 2, 2, 2}, 51));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{2, 5, 4, 3}));
}

TEST(UpsampleLayer, GradCheck) {
  UpsampleNearest3d up;
  up.set_target(4, 5, 2);
  const Tensor input = random_input({2, 2, 3, 1}, 61);
  expect_gradcheck_ok(up, input, 62);
}

TEST(UpsampleLayer, InverseOfPoolShapes) {
  // pool(ceil) then upsample-to-original restores the original dims for
  // arbitrary sizes — the property the U-Net depends on.
  for (std::int32_t d0 : {1, 3, 4, 7}) {
    for (std::int32_t d2 : {1, 2, 5}) {
      MaxPool3d pool;
      UpsampleNearest3d up;
      const Tensor input = random_input({2, d0, 3, d2}, 71);
      const Tensor pooled = pool.forward(input);
      up.set_target(d0, 3, d2);
      const Tensor restored = up.forward(pooled);
      EXPECT_EQ(restored.shape(), input.shape());
    }
  }
}

TEST(LinearLayer, KnownComputation) {
  util::Rng rng(1);
  Linear fc(2, 1, rng);
  auto params = fc.parameters();
  params[0]->value[0] = 2.0f;  // weight
  params[0]->value[1] = -1.0f;
  params[1]->value[0] = 0.5f;  // bias
  const Tensor out = fc.forward(Tensor::from({3, 4}));
  EXPECT_FLOAT_EQ(out[0], 2.0f * 3 - 1.0f * 4 + 0.5f);
}

TEST(LinearLayer, GradCheck) {
  util::Rng rng(81);
  Linear fc(6, 4, rng);
  expect_gradcheck_ok(fc, random_input({6}, 82), 83);
}

TEST(GlobalAvgPoolLayer, AveragesPerChannel) {
  GlobalAvgPool3d gap;
  Tensor input({2, 1, 2, 1});
  input[0] = 2.0f;
  input[1] = 4.0f;
  input[2] = -1.0f;
  input[3] = 1.0f;
  const Tensor out = gap.forward(input);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(GlobalAvgPoolLayer, GradCheck) {
  GlobalAvgPool3d gap;
  expect_gradcheck_ok(gap, random_input({3, 2, 2, 2}, 91), 92);
}

TEST(ResidualBlockLayer, OutputShapeAndChannels) {
  util::Rng rng(5);
  ResidualBlock3d block(3, 6, rng);
  const Tensor out = block.forward(random_input({3, 3, 4, 2}, 6));
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{6, 3, 4, 2}));
}

TEST(ResidualBlockLayer, GradCheckWithProjection) {
  util::Rng rng(15);
  ResidualBlock3d block(2, 4, rng);
  expect_gradcheck_ok(block, random_input({2, 2, 3, 2}, 16), 17);
}

TEST(ResidualBlockLayer, GradCheckIdentitySkip) {
  util::Rng rng(25);
  ResidualBlock3d block(4, 4, rng);
  expect_gradcheck_ok(block, random_input({4, 2, 2, 2}, 26), 27);
}

TEST(ResidualBlockLayer, PickGroups) {
  EXPECT_EQ(ResidualBlock3d::pick_groups(1), 1);
  EXPECT_EQ(ResidualBlock3d::pick_groups(4), 4);
  EXPECT_EQ(ResidualBlock3d::pick_groups(6), 3);
  EXPECT_EQ(ResidualBlock3d::pick_groups(8), 4);
  EXPECT_EQ(ResidualBlock3d::pick_groups(7), 1);
}

TEST(ValueNetModel, ScalarOutputAnySize) {
  ValueNet net(ValueNetConfig{3, 4, 8, 1});
  for (std::int32_t d : {2, 3, 5}) {
    const Tensor out = net.forward(random_input({3, d, d + 1, 2}, 100 + d));
    EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{1}));
  }
}

TEST(ValueNetModel, GradCheck) {
  // The scalar head makes per-entry gradients tiny (GAP divides by the
  // spatial volume), so use a larger probe step and tolerance to stay
  // above float32 noise.
  ValueNet net(ValueNetConfig{2, 4, 6, 2});
  const Tensor input = random_input({2, 2, 3, 2}, 111);
  net.forward(input);
  const Tensor weights = Tensor::from({1.0f});
  util::Rng rng(112);
  const GradCheckResult r = grad_check(net, input, weights, rng, 1e-2, 0.12, 24);
  EXPECT_TRUE(r.ok) << "max_rel_error=" << r.max_rel_error;
}

}  // namespace
}  // namespace oar::nn
