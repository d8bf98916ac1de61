#pragma once

// Spatial resampling for the U-Net: 2x max pooling with ceil semantics (so
// odd and very small dimensions — e.g. 4..10 routing layers — survive the
// encoder) and nearest-neighbor upsampling to an explicit target size (so
// the decoder output always matches its skip connection exactly, whatever
// the input dimensions were).  Both are required for the paper's
// arbitrary-size property.

#include "nn/module.hpp"

namespace oar::nn {

class MaxPool3d : public Module {
 public:
  /// kernel = stride = 2, ceil mode: output dim = ceil(D / 2).
  MaxPool3d() = default;

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  static std::int32_t out_dim(std::int32_t d) { return (d + 1) / 2; }

  /// Single-sample inference kernel: pools the (C, D0, D1, D2) volume at
  /// `in` into the (C, out_dim...) buffer at `out`; no argmax bookkeeping.
  void infer_into(const float* in, std::int32_t C, std::int32_t D0,
                  std::int32_t D1, std::int32_t D2, float* out) const;

 private:
  std::vector<std::int64_t> argmax_;  // flat input index per output element
  std::vector<std::int32_t> in_shape_;
};

class UpsampleNearest3d : public Module {
 public:
  /// Target spatial size must be set (per call) before forward().
  void set_target(std::int32_t d0, std::int32_t d1, std::int32_t d2) {
    t0_ = d0;
    t1_ = d1;
    t2_ = d2;
  }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Single-sample inference kernel: upsamples the (C, D0, D1, D2) volume
  /// at `in` to the (C, t0, t1, t2) target size at `out`.  The U-Net's
  /// inference path points `out` at the first C channels of the concat
  /// buffer, fusing away the separate concatenation pass.
  void infer_into(const float* in, std::int32_t C, std::int32_t D0,
                  std::int32_t D1, std::int32_t D2, float* out) const;

 private:
  std::int32_t t0_ = 0, t1_ = 0, t2_ = 0;
  std::vector<std::int32_t> in_shape_;
};

}  // namespace oar::nn
