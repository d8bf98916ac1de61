#include "nn/unet3d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>

#include "nn/gradcheck.hpp"
#include "nn/serialize.hpp"

namespace oar::nn {
namespace {

UNet3dConfig tiny_config() {
  UNet3dConfig cfg;
  cfg.in_channels = 3;
  cfg.base_channels = 4;
  cfg.depth = 2;
  cfg.seed = 77;
  return cfg;
}

class UNetShapeTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t, std::int32_t>> {};

TEST_P(UNetShapeTest, ImageInImageOutForArbitrarySizes) {
  const auto [H, V, M] = GetParam();
  UNet3d net(tiny_config());
  util::Rng rng(1);
  const Tensor input = Tensor::randn({3, H, V, M}, rng);
  const Tensor out = net.forward(input);
  EXPECT_EQ(out.shape(), (std::vector<std::int32_t>{1, H, V, M}));
  for (std::int64_t i = 0; i < out.numel(); ++i) EXPECT_TRUE(std::isfinite(out[i]));
}

// The paper's headline property: any length, any width, any layer count —
// including odd sizes, degenerate single-layer and rectangular inputs.
INSTANTIATE_TEST_SUITE_P(Sizes, UNetShapeTest,
                         ::testing::Values(std::tuple{4, 4, 4}, std::tuple{7, 5, 3},
                                           std::tuple{16, 16, 4}, std::tuple{9, 17, 1},
                                           std::tuple{1, 6, 2}, std::tuple{12, 3, 10},
                                           std::tuple{5, 5, 5}, std::tuple{2, 2, 1}));

TEST(UNet, SameInputSameOutputDeterministic) {
  UNet3d net(tiny_config());
  util::Rng rng(2);
  const Tensor input = Tensor::randn({3, 5, 5, 2}, rng);
  const Tensor a = net.forward(input);
  const Tensor b = net.forward(input);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(UNet, SeedControlsInitialization) {
  UNet3dConfig c1 = tiny_config(), c2 = tiny_config();
  c2.seed = 99;
  UNet3d n1(c1), n2(c1), n3(c2);
  util::Rng rng(3);
  const Tensor input = Tensor::randn({3, 4, 4, 2}, rng);
  const Tensor o1 = n1.forward(input), o2 = n2.forward(input), o3 = n3.forward(input);
  double diff12 = 0.0, diff13 = 0.0;
  for (std::int64_t i = 0; i < o1.numel(); ++i) {
    diff12 += std::abs(double(o1[i]) - o2[i]);
    diff13 += std::abs(double(o1[i]) - o3[i]);
  }
  EXPECT_DOUBLE_EQ(diff12, 0.0);
  EXPECT_GT(diff13, 1e-6);
}

TEST(UNet, GradCheckTiny) {
  UNet3dConfig cfg;
  cfg.in_channels = 2;
  cfg.base_channels = 2;
  cfg.depth = 1;
  cfg.seed = 5;
  UNet3d net(cfg);
  util::Rng rng(6);
  const Tensor input = Tensor::randn({2, 3, 3, 2}, rng);
  const Tensor out = net.forward(input);
  const Tensor weights = Tensor::randn(out.shape(), rng);
  util::Rng check_rng(7);
  const GradCheckResult r = grad_check(net, input, weights, check_rng, 1e-2, 8e-2, 12);
  EXPECT_TRUE(r.ok) << "max_rel_error=" << r.max_rel_error;
}

TEST(UNet, ParameterCountGrowsWithDepth) {
  UNet3dConfig shallow = tiny_config();
  shallow.depth = 1;
  UNet3dConfig deep = tiny_config();
  deep.depth = 3;
  UNet3d a(shallow), b(deep);
  EXPECT_GT(b.num_parameters(), a.num_parameters());
  EXPECT_GT(a.num_parameters(), 0);
}

TEST(UNet, SerializationRoundTrip) {
  const std::string path = ::testing::TempDir() + "/unet_roundtrip.bin";
  UNet3d net(tiny_config());
  ASSERT_TRUE(save_parameters(net, path));

  UNet3d restored(UNet3dConfig{3, 4, 2, 123456});  // different init seed
  ASSERT_TRUE(load_parameters(restored, path));

  util::Rng rng(8);
  const Tensor input = Tensor::randn({3, 6, 5, 3}, rng);
  const Tensor a = net.forward(input);
  const Tensor b = restored.forward(input);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(UNet, LoadRejectsMismatchedArchitecture) {
  const std::string path = ::testing::TempDir() + "/unet_mismatch.bin";
  UNet3d net(tiny_config());
  ASSERT_TRUE(save_parameters(net, path));
  UNet3dConfig other = tiny_config();
  other.base_channels = 8;
  UNet3d wrong(other);
  EXPECT_FALSE(load_parameters(wrong, path));
  std::remove(path.c_str());
}

TEST(UNet, LoadRejectsMissingFile) {
  UNet3d net(tiny_config());
  EXPECT_FALSE(load_parameters(net, "/nonexistent/path/model.bin"));
}

TEST(UNet, CopyParametersMakesNetsIdentical) {
  UNet3dConfig cfg = tiny_config();
  UNet3d a(cfg);
  cfg.seed = 999;
  UNet3d b(cfg);
  copy_parameters(b, a);
  util::Rng rng(9);
  const Tensor input = Tensor::randn({3, 4, 7, 2}, rng);
  const Tensor oa = a.forward(input);
  const Tensor ob = b.forward(input);
  for (std::int64_t i = 0; i < oa.numel(); ++i) EXPECT_FLOAT_EQ(oa[i], ob[i]);
}

TEST(UNet, ForwardBatchMatchesPerSampleForward) {
  UNet3d net(tiny_config());
  util::Rng rng(12);
  const std::int32_t n = 4;
  const Tensor batch = Tensor::randn({n, 3, 8, 8, 2}, rng);
  const Tensor batched = net.forward_batch(batch);

  const std::int64_t in_stride = batch.numel() / n;
  const std::int64_t out_stride = batched.numel() / n;
  Tensor sample({3, 8, 8, 2});
  for (std::int32_t i = 0; i < n; ++i) {
    std::copy(batch.data() + i * in_stride, batch.data() + (i + 1) * in_stride,
              sample.data());
    const Tensor single = net.forward(sample);
    ASSERT_EQ(single.numel(), out_stride);
    for (std::int64_t j = 0; j < out_stride; ++j) {
      // forward_batch is the per-sample forward in a loop: bitwise equal.
      ASSERT_EQ(batched[i * out_stride + j], single[j]) << i << "," << j;
    }
  }
}

TEST(UNet, ZeroGradClearsGradients) {
  UNet3d net(tiny_config());
  util::Rng rng(10);
  const Tensor input = Tensor::randn({3, 4, 4, 2}, rng);
  const Tensor out = net.forward(input);
  net.backward(Tensor::full(out.shape(), 1.0f));
  double norm_before = 0.0;
  for (Parameter* p : net.parameters()) norm_before += p->grad.norm();
  EXPECT_GT(norm_before, 0.0);
  net.zero_grad();
  for (Parameter* p : net.parameters()) EXPECT_DOUBLE_EQ(p->grad.norm(), 0.0);
}

}  // namespace
}  // namespace oar::nn
