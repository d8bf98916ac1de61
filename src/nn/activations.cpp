#include "nn/activations.hpp"

#include <cmath>

namespace oar::nn {

void relu_into(const float* x, std::int64_t n, std::uint8_t* mask, float* y) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const bool pos = v > 0.0f;
    mask[i] = pos;
    y[i] = pos ? v : 0.0f;
  }
}

void relu_mask_inplace(const std::uint8_t* mask, std::int64_t n, float* g) {
  for (std::int64_t i = 0; i < n; ++i) g[i] = mask[i] ? g[i] : 0.0f;
}

float Sigmoid::apply(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

void sigmoid_into(const float* x, std::int64_t n, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    if (v >= 0.0f) {
      const float z = std::exp(-v);
      out[i] = double(1.0f / (1.0f + z));
    } else {
      const float z = std::exp(v);
      out[i] = double(z / (1.0f + z));
    }
  }
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out = input;
  for (std::int64_t i = 0; i < out.numel(); ++i) out[i] = apply(out[i]);
  output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  assert(output_.defined());
  Tensor grad = grad_output;
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    const float y = output_[i];
    grad[i] *= y * (1.0f - y);
  }
  return grad;
}

}  // namespace oar::nn
