// Golden digests of the fp32 convolution numerics.
//
// Each digest is fnv1a64 over the bits of one pass's outputs: the logits of
// an eval-mode forward, or the logits, the input gradient and every
// parameter gradient of one training forward + backward.  The tables were
// recorded at commit 6c5b686, whose Conv3d ran four kernel paths (vector
// full lines at layer extents 1/2/4/8, scalar full lines, scalar tiles and
// an im2col GEMM for other channel counts); any rewrite of the kernels must
// keep every element's accumulation order (bias, then ic, k0, k1, k2) and
// so reproduce these bits.
//
// The convolution translation unit builds with -march=native, so the bits
// assume an FMA-capable x86 host (the int8 golden digests of
// test_mcts_golden.cpp make the same assumption).
//
// The default nets have GroupNorm gamma = 1, beta = 0 and zero conv biases,
// so their digests cannot see how `gamma * n + beta` rounds (a fused
// multiply-add there changes bits).  The Fp32AffineDigest tables re-run the
// same passes with random gamma, beta and biases; they were recorded at
// commit 24fa9a5, before the non-conv layers were vectorized.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "nn/conv3d.hpp"
#include "nn/loss.hpp"
#include "nn/unet3d.hpp"
#include "util/hash.hpp"

namespace oar::nn {
namespace {

/// Accumulates the raw bytes of tensors for one fnv1a64 digest.
class Digest {
 public:
  Digest& add(const Tensor& t) {
    bytes_.append(reinterpret_cast<const char*>(t.data()),
                  std::size_t(t.numel()) * sizeof(float));
    return *this;
  }
  std::uint64_t value() const { return util::fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull", v);
  return buf;
}

/// A sparse non-negative input, like the selector's feature planes.
Tensor sparse_input(std::int32_t channels, std::int32_t h, std::int32_t v,
                    std::int32_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x = Tensor::randn({channels, h, v, m}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0f, x[i]);
  return x;
}

/// Every seventh voxel is a positive label.
Tensor sparse_target(const Tensor& logits) {
  Tensor target(logits.shape());
  for (std::int64_t i = 0; i < target.numel(); i += 7) target[i] = 1.0f;
  return target;
}

std::uint64_t eval_digest(UNet3d& net, const Tensor& input) {
  net.set_training(false);
  return Digest().add(net.forward(input)).value();
}

std::uint64_t training_digest(UNet3d& net, const Tensor& input) {
  net.set_training(true);
  net.zero_grad();
  const Tensor logits = net.forward(input);
  Tensor grad;
  bce_with_logits(logits, sparse_target(logits), grad);
  Digest d;
  d.add(logits).add(net.backward(grad));
  for (const Parameter* p : net.parameters()) d.add(p->grad);
  return d.value();
}

/// Random GroupNorm affine and conv biases; every other parameter keeps its
/// seeded initialization.
void randomize_affine(UNet3d& net, std::uint64_t seed) {
  util::Rng rng(seed);
  for (Parameter* p : net.parameters()) {
    const bool gamma = p->name == "gn.gamma";
    if (!gamma && p->name != "gn.beta" && p->name != "conv.bias") continue;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] = float(gamma ? rng.normal(1.0, 0.5) : rng.normal(0.0, 0.3));
    }
  }
}

struct Size {
  std::int32_t h, v, m;
};

constexpr Size kSizes[] = {{12, 12, 3}, {16, 16, 4}, {24, 24, 6}, {32, 32, 8}, {32, 32, 10}};

// {eval forward, training fwd+bwd} per size, recorded at commit 6c5b686.
constexpr std::uint64_t kDefaultNet[std::size(kSizes)][2] = {
    {0x16d906e9f59799e3ull, 0xdf57fe9a0036e46cull},
    {0xc09917bd486160c9ull, 0xfd0d1861363814b4ull},
    {0xbf8f562bbc16d3dcull, 0x36c374b92112de32ull},
    {0x4edd27bdf6ef5d17ull, 0x532d22bc514b4a54ull},
    {0x6af329a1ebe75f64ull, 0xf2dbe9f0f7625cbdull},
};

TEST(Fp32Digest, DefaultUNetForwardAndTraining) {
  UNet3d net;  // the selector's default: 7 inputs, base 8, depth 2
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    const Size s = kSizes[i];
    SCOPED_TRACE(::testing::Message() << s.h << "x" << s.v << "x" << s.m);
    const Tensor input = sparse_input(7, s.h, s.v, s.m, 1000 + i);
    EXPECT_EQ(hex(eval_digest(net, input)), hex(kDefaultNet[i][0])) << "eval forward";
    EXPECT_EQ(hex(training_digest(net, input)), hex(kDefaultNet[i][1]))
        << "training forward + backward";
  }
}

// base_channels = 5: channel counts 5/10/20 and decoder inputs 30/15, none
// a multiple of eight.  {eval, training} at 12x12x3 and 16x16x5.
constexpr std::uint64_t kBase5Net[2][2] = {
    {0x97f29adaf024bf7aull, 0x49e6e1743ed86fb7ull},
    {0xffff829332cf78f2ull, 0x39e490a856242109ull},
};

TEST(Fp32Digest, Base5UNetForwardAndTraining) {
  UNet3dConfig config;
  config.base_channels = 5;
  UNet3d net(config);
  const Size sizes[] = {{12, 12, 3}, {16, 16, 5}};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const Size s = sizes[i];
    SCOPED_TRACE(::testing::Message() << s.h << "x" << s.v << "x" << s.m);
    const Tensor input = sparse_input(7, s.h, s.v, s.m, 2000 + i);
    EXPECT_EQ(hex(eval_digest(net, input)), hex(kBase5Net[i][0])) << "eval forward";
    EXPECT_EQ(hex(training_digest(net, input)), hex(kBase5Net[i][1]))
        << "training forward + backward";
  }
}

// {eval forward, training fwd+bwd} per size with random affine, recorded at
// commit 24fa9a5.
constexpr Size kAffineSizes[] = {{12, 12, 3}, {16, 16, 4}, {32, 32, 8}};
constexpr std::uint64_t kAffineDefaultNet[std::size(kAffineSizes)][2] = {
    {0x3829a29321242cb5ull, 0x12f9d27ebd8776d5ull},
    {0x5b7987de8e3d8a44ull, 0xdb35cecdc17882b9ull},
    {0x0c3376eeb7ae7410ull, 0xa8d39455cba06a87ull},
};

TEST(Fp32AffineDigest, DefaultUNetForwardAndTraining) {
  UNet3d net;
  randomize_affine(net, 4000);
  for (std::size_t i = 0; i < std::size(kAffineSizes); ++i) {
    const Size s = kAffineSizes[i];
    SCOPED_TRACE(::testing::Message() << s.h << "x" << s.v << "x" << s.m);
    const Tensor input = sparse_input(7, s.h, s.v, s.m, 4100 + i);
    EXPECT_EQ(hex(eval_digest(net, input)), hex(kAffineDefaultNet[i][0])) << "eval forward";
    EXPECT_EQ(hex(training_digest(net, input)), hex(kAffineDefaultNet[i][1]))
        << "training forward + backward";
  }
}

// base_channels = 5 runs GroupNorm at 1, 2 and 4 groups (5, 10 and 20
// channels).  {eval, training} at 12x12x3 and 16x16x5.
constexpr std::uint64_t kAffineBase5Net[2][2] = {
    {0x189f9bd3013e5896ull, 0x5a19873c056906e9ull},
    {0x1d0d903220b52f3full, 0x22fb578c39c25324ull},
};

TEST(Fp32AffineDigest, Base5UNetForwardAndTraining) {
  UNet3dConfig config;
  config.base_channels = 5;
  UNet3d net(config);
  randomize_affine(net, 5000);
  const Size sizes[] = {{12, 12, 3}, {16, 16, 5}};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const Size s = sizes[i];
    SCOPED_TRACE(::testing::Message() << s.h << "x" << s.v << "x" << s.m);
    const Tensor input = sparse_input(7, s.h, s.v, s.m, 5100 + i);
    EXPECT_EQ(hex(eval_digest(net, input)), hex(kAffineBase5Net[i][0])) << "eval forward";
    EXPECT_EQ(hex(training_digest(net, input)), hex(kAffineBase5Net[i][1]))
        << "training forward + backward";
  }
}

// Kernel-5 convolutions at padding 2 and 1: forward output, input gradient,
// weight and bias gradients.
constexpr std::uint64_t kKernel5[2] = {0x8bb1aa2db6853b6eull, 0xd43bdbb11810e5f0ull};

TEST(Fp32Digest, Kernel5Conv) {
  struct Case {
    std::int32_t ic, oc, pad;
  };
  const Case cases[] = {{6, 8, 2}, {8, 5, 1}};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case c = cases[i];
    SCOPED_TRACE(::testing::Message() << "IC=" << c.ic << " OC=" << c.oc << " pad=" << c.pad);
    util::Rng rng(3000 + i);
    Conv3d conv(c.ic, c.oc, 5, rng, c.pad);
    conv.bias().value = Tensor::randn({c.oc}, rng, 0.5f);
    const Tensor input = sparse_input(c.ic, 9, 7, 6, 3100 + i);
    const Tensor out = conv.forward(input);
    const Tensor grad_out = Tensor::randn(out.shape(), rng);
    const Tensor grad_in = conv.backward(grad_out);
    const std::uint64_t d =
        Digest().add(out).add(grad_in).add(conv.weight().grad).add(conv.bias().grad).value();
    EXPECT_EQ(hex(d), hex(kKernel5[i]));
  }
}

}  // namespace
}  // namespace oar::nn
