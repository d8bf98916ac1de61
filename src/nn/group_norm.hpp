#pragma once

// Group normalization over a (C, D0, D1, D2) volume.
//
// The paper's residual blocks use per-feature normalization; since our
// modules run one sample at a time (batch statistics are unavailable),
// GroupNorm is the standard batch-size-independent substitute — with
// num_groups == num_channels it degenerates to InstanceNorm.  Learnable
// per-channel affine (gamma, beta).

#include "nn/module.hpp"

namespace oar::nn {

class GroupNorm : public Module {
 public:
  GroupNorm(std::int32_t num_channels, std::int32_t num_groups, float eps = 1e-5f);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  // Single-sample inference kernels (no retention; same double-precision
  // group statistics as the training forward).  `spatial` is the per-
  // channel voxel count D0*D1*D2.
  /// out = gn(in); in == out aliasing is allowed.  Parameter order follows
  /// the repo-wide *_into convention (DESIGN.md §13): output buffer last.
  void infer_into(const float* in, std::int64_t spatial, float* out) const;

  /// x = relu(gn(x)) in place — the norm1 position of a residual block.
  void infer_relu_inplace(float* x, std::int64_t spatial) const;
  /// x = relu(gn(x) + skip) in place — norm2 + skip-add + output ReLU.
  void infer_add_relu_inplace(float* x, const float* skip,
                              std::int64_t spatial) const;

  std::int32_t num_channels() const { return channels_; }
  std::int32_t num_groups() const { return groups_; }
  float eps() const { return eps_; }
  const Parameter& gamma() const { return gamma_; }
  const Parameter& beta() const { return beta_; }

 private:
  std::int32_t channels_, groups_;
  float eps_;
  Parameter gamma_;  // (C)
  Parameter beta_;   // (C)
  Tensor normalized_;             // (x - mu) / sigma, cached for backward
  std::vector<float> inv_sigma_;  // per group
};

}  // namespace oar::nn
