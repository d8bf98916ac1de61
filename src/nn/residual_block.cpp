#include "nn/residual_block.hpp"

#include "nn/inference.hpp"

namespace oar::nn {

std::int32_t ResidualBlock3d::pick_groups(std::int32_t channels) {
  for (std::int32_t g = std::min(4, channels); g > 1; --g) {
    if (channels % g == 0) return g;
  }
  return 1;
}

ResidualBlock3d::ResidualBlock3d(std::int32_t in_channels, std::int32_t out_channels,
                                 util::Rng& rng)
    : out_channels_(out_channels),
      conv1_(in_channels, out_channels, 3, rng),
      norm1_(out_channels, pick_groups(out_channels)),
      conv2_(out_channels, out_channels, 3, rng),
      norm2_(out_channels, pick_groups(out_channels)) {
  if (in_channels != out_channels) {
    projection_ = std::make_unique<Conv3d>(in_channels, out_channels, 1, rng);
  }
}

void ResidualBlock3d::collect_parameters(std::vector<Parameter*>& out) {
  conv1_.collect_parameters(out);
  norm1_.collect_parameters(out);
  conv2_.collect_parameters(out);
  norm2_.collect_parameters(out);
  if (projection_) projection_->collect_parameters(out);
}

void ResidualBlock3d::set_training(bool training) {
  Module::set_training(training);
  conv1_.set_training(training);
  norm1_.set_training(training);
  conv2_.set_training(training);
  norm2_.set_training(training);
  if (projection_) projection_->set_training(training);
}

Tensor ResidualBlock3d::forward(const Tensor& input) {
  if (!training()) {
    InferenceScratch& arena = local_inference_scratch();
    arena.rewind();
    return infer(input, arena);  // copies out of the arena
  }
  Tensor main = norm2_.forward(conv2_.forward(
      relu1_.forward(norm1_.forward(conv1_.forward(input)))));
  Tensor skip = projection_ ? projection_->forward(input) : input;
  assert(main.shape() == skip.shape());
  main += skip;
  // Final ReLU (mask cached for backward).
  out_mask_.resize(std::size_t(main.numel()));
  relu_into(main.data(), main.numel(), out_mask_.data(), main.data());
  return main;
}

const Tensor& ResidualBlock3d::infer(const Tensor& input,
                                     InferenceScratch& arena) {
  assert(input.dim() == 4 && input.shape(0) == conv1_.in_channels());
  const std::int32_t D0 = input.shape(1), D1 = input.shape(2),
                     D2 = input.shape(3);
  const std::int64_t spatial = std::int64_t(D0) * D1 * D2;

  Tensor& t1 = arena.push({out_channels_, D0, D1, D2});
  conv1_.infer_into(input.data(), D0, D1, D2, arena, t1.data());
  norm1_.infer_relu_inplace(t1.data(), spatial);

  Tensor& t2 = arena.push({out_channels_, D0, D1, D2});
  conv2_.infer_into(t1.data(), D0, D1, D2, arena, t2.data());

  const float* skip = input.data();
  if (projection_) {
    Tensor& proj = arena.push({out_channels_, D0, D1, D2});
    projection_->infer_into(input.data(), D0, D1, D2, arena, proj.data());
    skip = proj.data();
  }
  norm2_.infer_add_relu_inplace(t2.data(), skip, spatial);
  return t2;
}

Tensor ResidualBlock3d::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  Tensor grad = grad_output;
  relu_mask_inplace(out_mask_.data(), grad.numel(), grad.data());
  // Branch gradients: both the main path and the skip see `grad`.
  Tensor grad_main = conv1_.backward(
      norm1_.backward(relu1_.backward(conv2_.backward(norm2_.backward(grad)))));
  Tensor grad_skip = projection_ ? projection_->backward(grad) : grad;
  grad_main += grad_skip;
  return grad_main;
}

}  // namespace oar::nn
