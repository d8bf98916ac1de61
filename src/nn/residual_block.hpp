#pragma once

// 3D convolutional residual block (He et al. [8]), as used by the paper's
// selector: conv3x3x3 -> GroupNorm -> ReLU -> conv3x3x3 -> GroupNorm, plus
// an identity (or 1x1x1 projection) skip, joined by ReLU.

#include <memory>

#include "nn/activations.hpp"
#include "nn/conv3d.hpp"
#include "nn/group_norm.hpp"

namespace oar::nn {

class InferenceScratch;

class ResidualBlock3d : public Module {
 public:
  ResidualBlock3d(std::int32_t in_channels, std::int32_t out_channels, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void set_training(bool training) override;

  /// Single-sample inference fast path: tiled conv kernels with the norm /
  /// skip / ReLU steps fused in place, all temporaries from `arena`.  The
  /// returned tensor is arena-owned and stays valid until the arena is
  /// rewound past it.  `input` may itself live in `arena`.
  const Tensor& infer(const Tensor& input, InferenceScratch& arena);

  std::int32_t out_channels() const { return out_channels_; }

  // Read-only submodule access (quant calibration replays the fp32 path
  // and folds/quantizes the weights — nn/quant/quantize.cpp).
  const Conv3d& conv1() const { return conv1_; }
  const GroupNorm& norm1() const { return norm1_; }
  const Conv3d& conv2() const { return conv2_; }
  const GroupNorm& norm2() const { return norm2_; }
  /// Null for identity skips (in_channels == out_channels).
  const Conv3d* projection() const { return projection_.get(); }

  /// Largest group count <= 4 dividing `channels` (GroupNorm constraint).
  static std::int32_t pick_groups(std::int32_t channels);

 private:
  std::int32_t out_channels_;
  Conv3d conv1_;
  GroupNorm norm1_;
  ReLU relu1_;
  Conv3d conv2_;
  GroupNorm norm2_;
  std::unique_ptr<Conv3d> projection_;  // 1x1x1 when in != out channels
  std::vector<std::uint8_t> out_mask_;  // final ReLU mask
};

}  // namespace oar::nn
