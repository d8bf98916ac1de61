// Finite-difference gradient verification of every hand-written backward
// pass, shape/semantics checks per layer, the Conv3d kernels against a
// scalar reference implementation, and GroupNorm and the upsample bitwise
// against one-group-at-a-time and division-formula references.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>

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

/// Element-wise bit equality (so -0 vs +0 and NaN payloads count).
void expect_same_bits(const float* got, const float* want, std::int64_t n,
                      const char* what) {
  std::int64_t mismatches = 0, first = -1;
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i])) {
      if (first < 0) first = i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << what << ": first at " << first << " (got "
                           << (first < 0 ? 0.0f : got[first]) << ", want "
                           << (first < 0 ? 0.0f : want[first]) << ")";
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

TEST(ReLULayer, SelectKeepsBranchSemantics) {
  // -0 and NaN are not > 0, so they map to +0 with a cleared mask.
  ReLU relu;
  const Tensor input = Tensor::from({-1.0f, -0.0f, 0.0f,
                                     std::numeric_limits<float>::quiet_NaN(), 2.5f});
  const Tensor out = relu.forward(input);
  const float want[] = {0.0f, 0.0f, 0.0f, 0.0f, 2.5f};
  expect_same_bits(out.data(), want, 5, "forward");
  const Tensor grad = relu.backward(Tensor::from({1.0f, 2.0f, 3.0f, 4.0f, 5.0f}));
  const float want_grad[] = {0.0f, 0.0f, 0.0f, 0.0f, 5.0f};
  expect_same_bits(grad.data(), want_grad, 5, "backward");
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

/// GroupNorm computed one group at a time, each group's statistics one
/// serial double chain: the reference the vectorized layer must match bit
/// for bit, in inference and in training.
struct GroupNormReference {
  const GroupNorm& gn;
  std::int64_t spatial;

  std::int32_t cpg() const { return gn.num_channels() / gn.num_groups(); }

  void stats(const float* x, std::int32_t g, float* mu, float* inv) const {
    const std::int64_t size = cpg() * spatial;
    double sum = 0.0, sum_sq = 0.0;
    for (std::int64_t i = 0; i < size; ++i) {
      const double v = x[g * size + i];
      sum += v;
      sum_sq += v * v;
    }
    const double m = sum / double(size);
    const double var = std::max(0.0, sum_sq / double(size) - m * m);
    *mu = float(m);
    *inv = float(1.0 / std::sqrt(var + gn.eps()));
  }

  /// y = gn(x), then + skip (when given) and ReLU (when asked); also the
  /// normalized values the training forward keeps.
  void forward(const float* x, const float* skip, bool relu, float* y, float* nrm,
               std::vector<float>* inv_sigma) const {
    for (std::int32_t g = 0; g < gn.num_groups(); ++g) {
      float mu, inv;
      stats(x, g, &mu, &inv);
      if (inv_sigma) inv_sigma->push_back(inv);
      for (std::int32_t c = 0; c < cpg(); ++c) {
        const std::int32_t chan = g * cpg() + c;
        const float gam = gn.gamma().value[chan];
        const float bet = gn.beta().value[chan];
        for (std::int64_t i = chan * spatial; i < (chan + 1) * spatial; ++i) {
          const float n = (x[i] - mu) * inv;
          if (nrm) nrm[i] = n;
          float v = gam * n + bet;
          if (skip) v += skip[i];
          y[i] = relu && !(v > 0.0f) ? 0.0f : v;
        }
      }
    }
  }

  void backward(const float* go, const float* nrm, const std::vector<float>& inv_sigma,
                float* gi, float* ggam, float* gbet) const {
    const double inv_n = 1.0 / double(cpg() * spatial);
    for (std::int32_t g = 0; g < gn.num_groups(); ++g) {
      double sum_gy = 0.0, sum_gy_n = 0.0;
      for (std::int32_t c = 0; c < cpg(); ++c) {
        const std::int32_t chan = g * cpg() + c;
        const float gam = gn.gamma().value[chan];
        double gg = 0.0, gb = 0.0;
        for (std::int64_t i = chan * spatial; i < (chan + 1) * spatial; ++i) {
          gg += double(go[i]) * nrm[i];
          gb += go[i];
          sum_gy += double(gam) * go[i];
          sum_gy_n += double(gam) * go[i] * nrm[i];
        }
        ggam[chan] += float(gg);
        gbet[chan] += float(gb);
      }
      for (std::int32_t c = 0; c < cpg(); ++c) {
        const std::int32_t chan = g * cpg() + c;
        const float gam = gn.gamma().value[chan];
        for (std::int64_t i = chan * spatial; i < (chan + 1) * spatial; ++i) {
          const double gy = double(gam) * go[i];
          const double nv = nrm[i];
          gi[i] = float(inv_sigma[std::size_t(g)] *
                        (gy - inv_n * sum_gy - nv * inv_n * sum_gy_n));
        }
      }
    }
  }
};

// {channels, groups}: the U-Net's channel counts at base 5 and 8 with
// their ResidualBlock3d::pick_groups groups (1, 2 and 4), plus group
// counts that split into several lockstep blocks (3, 6 and 8).
class GroupNormOracle
    : public ::testing::TestWithParam<std::pair<std::int32_t, std::int32_t>> {
 protected:
  void SetUp() override {
    const auto [channels, groups] = GetParam();
    gn_ = std::make_unique<GroupNorm>(channels, groups);
    util::Rng rng(std::uint64_t(channels) * 100 + std::uint64_t(groups));
    for (std::int32_t c = 0; c < channels; ++c) {
      gn_->parameters()[0]->value[c] = float(rng.normal(1.0, 0.5));
      gn_->parameters()[1]->value[c] = float(rng.normal(0.0, 0.3));
    }
    // Off-centre input, so the mean matters to every normalized value.
    input_ = random_input({channels, 7, 5, 3}, 700 + std::uint64_t(channels));
    for (std::int64_t i = 0; i < input_.numel(); ++i) input_[i] = 0.5f + 2.0f * input_[i];
    skip_ = random_input(input_.shape(), 800 + std::uint64_t(channels));
  }

  std::unique_ptr<GroupNorm> gn_;
  Tensor input_, skip_;
};

TEST_P(GroupNormOracle, InferenceMatchesOneGroupAtATime) {
  const std::int64_t spatial = input_.numel() / gn_->num_channels();
  const GroupNormReference ref{*gn_, spatial};
  Tensor want(input_.shape());

  Tensor got(input_.shape());
  gn_->infer_into(input_.data(), spatial, got.data());
  ref.forward(input_.data(), nullptr, false, want.data(), nullptr, nullptr);
  expect_same_bits(got.data(), want.data(), got.numel(), "infer_into");

  got = input_;
  gn_->infer_relu_inplace(got.data(), spatial);
  ref.forward(input_.data(), nullptr, true, want.data(), nullptr, nullptr);
  expect_same_bits(got.data(), want.data(), got.numel(), "infer_relu_inplace");

  got = input_;
  gn_->infer_add_relu_inplace(got.data(), skip_.data(), spatial);
  ref.forward(input_.data(), skip_.data(), true, want.data(), nullptr, nullptr);
  expect_same_bits(got.data(), want.data(), got.numel(), "infer_add_relu_inplace");
}

TEST_P(GroupNormOracle, TrainingMatchesOneGroupAtATime) {
  const std::int64_t spatial = input_.numel() / gn_->num_channels();
  const GroupNormReference ref{*gn_, spatial};
  gn_->set_training(true);
  gn_->zero_grad();
  const Tensor out = gn_->forward(input_);
  const Tensor grad_out = random_input(input_.shape(), 900);
  const Tensor grad_in = gn_->backward(grad_out);

  Tensor want(input_.shape()), nrm(input_.shape()), want_gi(input_.shape());
  std::vector<float> inv_sigma;
  ref.forward(input_.data(), nullptr, false, want.data(), nrm.data(), &inv_sigma);
  Tensor want_ggam({gn_->num_channels()}), want_gbet({gn_->num_channels()});
  ref.backward(grad_out.data(), nrm.data(), inv_sigma, want_gi.data(), want_ggam.data(),
               want_gbet.data());
  expect_same_bits(out.data(), want.data(), out.numel(), "forward");
  expect_same_bits(grad_in.data(), want_gi.data(), grad_in.numel(), "input gradient");
  expect_same_bits(gn_->gamma().grad.data(), want_ggam.data(), want_ggam.numel(),
                   "gamma gradient");
  expect_same_bits(gn_->beta().grad.data(), want_gbet.data(), want_gbet.numel(),
                   "beta gradient");
}

INSTANTIATE_TEST_SUITE_P(Channels, GroupNormOracle,
                         ::testing::Values(std::pair{5, 1}, std::pair{8, 4},
                                           std::pair{10, 2}, std::pair{16, 4},
                                           std::pair{20, 4}, std::pair{32, 4},
                                           std::pair{9, 3}, std::pair{6, 6},
                                           std::pair{32, 8}));

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

/// Nearest source index by the division formula the upsample is defined by.
std::int32_t nearest_source(std::int32_t o, std::int32_t d, std::int32_t t) {
  return std::min(d - 1, std::int32_t(std::int64_t(o) * d / t));
}

// Source extent -> target extent per axis: 1->4, 3->5, 5->9, and 2->300,
// which is longer than any stack index table.
struct UpsampleCase {
  std::int32_t c, d0, d1, d2, t0, t1, t2;
};
constexpr UpsampleCase kUpsampleCases[] = {
    {2, 1, 3, 5, 4, 5, 9}, {3, 5, 1, 3, 9, 4, 5}, {2, 3, 5, 1, 5, 9, 4},
    {1, 2, 3, 2, 300, 5, 300}, {2, 1, 2, 5, 4, 300, 9}};

TEST(UpsampleOracle, ForwardAndBackwardMatchDivisionFormula) {
  for (const UpsampleCase& k : kUpsampleCases) {
    SCOPED_TRACE(::testing::Message() << k.d0 << "x" << k.d1 << "x" << k.d2 << " -> "
                                      << k.t0 << "x" << k.t1 << "x" << k.t2);
    UpsampleNearest3d up;
    up.set_target(k.t0, k.t1, k.t2);
    up.set_training(true);
    const Tensor input = random_input({k.c, k.d0, k.d1, k.d2}, 1000 + k.t0);
    const Tensor out = up.forward(input);
    const Tensor grad_out = random_input(out.shape(), 1100 + k.t1);
    const Tensor grad_in = up.backward(grad_out);

    Tensor want(out.shape()), want_gi(input.shape());
    std::int64_t oi = 0;
    for (std::int32_t c = 0; c < k.c; ++c) {
      for (std::int32_t o0 = 0; o0 < k.t0; ++o0) {
        for (std::int32_t o1 = 0; o1 < k.t1; ++o1) {
          for (std::int32_t o2 = 0; o2 < k.t2; ++o2, ++oi) {
            const std::int64_t src =
                ((std::int64_t(c) * k.d0 + nearest_source(o0, k.d0, k.t0)) * k.d1 +
                 nearest_source(o1, k.d1, k.t1)) * k.d2 +
                nearest_source(o2, k.d2, k.t2);
            want[oi] = input[src];
            want_gi[src] += grad_out[oi];
          }
        }
      }
    }
    expect_same_bits(out.data(), want.data(), out.numel(), "forward");
    expect_same_bits(grad_in.data(), want_gi.data(), grad_in.numel(), "backward");

    Tensor eval_out(out.shape());
    up.infer_into(input.data(), k.c, k.d0, k.d1, k.d2, eval_out.data());
    expect_same_bits(eval_out.data(), want.data(), eval_out.numel(), "infer_into");
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
