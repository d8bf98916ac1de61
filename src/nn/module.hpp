#pragma once

// Module protocol for the manual-backprop DL library.
//
// Modules process ONE sample at a time (no batch axis) on the training
// path; batching is done by the trainer, which runs forward/backward per
// sample and accumulates parameter gradients before an optimizer step.
// This matches the paper's same-size batches while keeping every layer's
// backward simple and easy to verify with finite differences.  A module
// caches whatever it needs in forward(); backward(grad_out) must be called
// after the matching forward.
//
// forward_batch() is a convenience loop for callers holding a stacked
// (N, ...) tensor (rl::dataset_loss): it runs forward() once per sample
// and stacks the outputs.  There is no batched kernel — on this CPU-only
// engine batching was slower per sample than the single-sample path — and
// the loop clobbers the single-sample caches, so backward() must not be
// called after it.
//
// Both modes convolve with the line kernel of conv3d_kernels.cpp, so
// training numerics follow the host's vector ISA (bitwise-reproducible per
// host, not across ISAs).  set_training(false) switches forward() itself
// onto the single-sample inference engine (DESIGN.md §11): temporaries
// from an InferenceScratch arena, fused norm/ReLU and NO activation
// retention — so backward() must not be called until set_training(true)
// has been restored and a fresh training forward has run.  Layers assert
// training() at the top of backward() to fail fast on stale caches.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace oar::nn {

/// Learnable tensor plus its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// dst.grad += src.grad, element-wise over two parameter lists of the same
/// architecture.  One reduction step of the data-parallel trainer: each
/// worker replica accumulates gradients locally, then replicas are merged
/// pairwise (tree reduction) into the master parameter list.
inline void accumulate_gradients(const std::vector<Parameter*>& dst,
                                 const std::vector<Parameter*>& src) {
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    assert(dst[i]->grad.shape() == src[i]->grad.shape());
    dst[i]->grad += src[i]->grad;
  }
}

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the output and caches activations needed for backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// forward() over each sample of (N, <sample shape>), stacked to
  /// (N, <output shape>).  Invalidates the caches backward() relies on.
  Tensor forward_batch(const Tensor& input);

  /// Appends raw pointers to this module's (and submodules') parameters.
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }

  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }

  std::int64_t num_parameters() {
    std::int64_t n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }

  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.zero();
  }

  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

 protected:
  bool training_ = true;
};

inline Tensor Module::forward_batch(const Tensor& input) {
  assert(input.dim() >= 2 && input.shape(0) > 0);
  const std::int32_t n = input.shape(0);
  const std::vector<std::int32_t> sample_shape(input.shape().begin() + 1,
                                               input.shape().end());
  Tensor sample(sample_shape);
  const std::int64_t stride = sample.numel();
  Tensor out;
  for (std::int32_t i = 0; i < n; ++i) {
    std::copy(input.data() + i * stride, input.data() + (i + 1) * stride,
              sample.data());
    const Tensor y = forward(sample);
    if (i == 0) {
      std::vector<std::int32_t> out_shape{n};
      out_shape.insert(out_shape.end(), y.shape().begin(), y.shape().end());
      out = Tensor(std::move(out_shape));
    }
    std::copy(y.data(), y.data() + y.numel(), out.data() + i * y.numel());
  }
  return out;
}

}  // namespace oar::nn
