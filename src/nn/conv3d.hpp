#pragma once

// 3D convolution (stride 1, symmetric zero padding) over a (C, D0, D1, D2)
// volume.  The paper's agent uses 3x3x3 kernels everywhere plus 1x1x1
// projections inside residual blocks; both are supported via `kernel`.

#include "nn/module.hpp"

namespace oar::nn {

class InferenceScratch;

class Conv3d : public Module {
 public:
  /// He-initialized convolution.  `kernel` must be odd; padding defaults to
  /// kernel/2 ("same" output size) and must stay below `kernel`.
  Conv3d(std::int32_t in_channels, std::int32_t out_channels, std::int32_t kernel,
         util::Rng& rng, std::int32_t padding = -1);

  /// Both modes run infer_into (the line kernel of conv3d_kernels.cpp) on
  /// the thread's local_inference_scratch(); training mode also retains the
  /// input for backward.
  Tensor forward(const Tensor& input) override;
  /// Accumulates into weight().grad / bias().grad and returns a fully
  /// written input gradient.  Also defined in conv3d_kernels.cpp: the input
  /// gradient is a convolution on the forward's kernel, the weight
  /// gradient a vector-register kernel, both with workspaces from the
  /// thread's local_inference_scratch().  Deterministic per sample.
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Single-sample convolution kernel: convolves the (in_channels, D0, D1,
  /// D2) volume at `in` into the (out_channels, O0, O1, O2) buffer at
  /// `out` with the register-tiled line kernel of conv3d_kernels.cpp
  /// (which also defines this, so it compiles under that TU's wider
  /// flags), for any extent, channel count, odd kernel and padding.  All
  /// temporaries come from `scratch`; nothing is retained, so a warmed-up
  /// call performs zero heap allocations.
  ///
  /// Parameter order follows the repo-wide *_into convention (DESIGN.md
  /// §13): inputs, then scratch, then the output buffer last.
  void infer_into(const float* in, std::int32_t D0, std::int32_t D1,
                  std::int32_t D2, InferenceScratch& scratch, float* out) const;

  std::int32_t in_channels() const { return in_channels_; }
  std::int32_t out_channels() const { return out_channels_; }
  std::int32_t kernel() const { return kernel_; }
  std::int32_t padding() const { return padding_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

 private:
  std::int32_t in_channels_, out_channels_, kernel_, padding_;
  Parameter weight_;  // (OC, IC, k, k, k)
  Parameter bias_;    // (OC)
  Tensor input_;      // cached for backward
};

}  // namespace oar::nn
