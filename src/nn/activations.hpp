#pragma once

// Element-wise activation layers.

#include "nn/module.hpp"

namespace oar::nn {

/// y[i] = x[i] > 0 ? x[i] : 0 (NaN maps to 0) and mask[i] = x[i] > 0.  A
/// select, not a conditional store, so the loop vectorizes without
/// branches.  y may equal x.
void relu_into(const float* x, std::int64_t n, std::uint8_t* mask, float* y);
/// g[i] = mask[i] ? g[i] : 0 in place — the ReLU backward, as a select.
void relu_mask_inplace(const std::uint8_t* mask, std::int64_t n, float* g);

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override {
    mask_.resize(std::size_t(input.numel()));
    Tensor out(input.shape());
    relu_into(input.data(), input.numel(), mask_.data(), out.data());
    return out;
  }

  Tensor backward(const Tensor& grad_output) override {
    assert(std::size_t(grad_output.numel()) == mask_.size());
    Tensor grad = grad_output;
    relu_mask_inplace(mask_.data(), grad.numel(), grad.data());
    return grad;
  }

 private:
  std::vector<std::uint8_t> mask_;
};

class Sigmoid : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Stateless helper (used at inference where no backward is needed).
  static float apply(float x);

 private:
  Tensor output_;
};

/// Bulk sigmoid readout over raw storage: out[i] = sigmoid(x[i]), bitwise
/// identical to Sigmoid::apply per element.  One pass over the logits
/// buffer replaces the per-element Tensor::operator[] loop the selector
/// and the serving layer used to run.
void sigmoid_into(const float* x, std::int64_t n, double* out);

}  // namespace oar::nn
