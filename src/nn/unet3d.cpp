#include "nn/unet3d.hpp"

#include <cmath>

#include "util/validate.hpp"

namespace oar::nn {

void UNet3dConfig::validate() const {
  util::check_field(in_channels >= 1, "UNet3dConfig", "in_channels", "be >= 1",
                    in_channels);
  util::check_field(base_channels >= 1, "UNet3dConfig", "base_channels",
                    "be >= 1", base_channels);
  util::check_field(depth >= 1, "UNet3dConfig", "depth", "be >= 1", depth);
  util::check_field(std::isfinite(head_bias_init), "UNet3dConfig",
                    "head_bias_init", "be finite", head_bias_init);
}

namespace {

/// Concatenate two (C, D0, D1, D2) tensors along channels.
Tensor concat_channels(const Tensor& a, const Tensor& b) {
  assert(a.dim() == 4 && b.dim() == 4);
  assert(a.shape(1) == b.shape(1) && a.shape(2) == b.shape(2) && a.shape(3) == b.shape(3));
  Tensor out({a.shape(0) + b.shape(0), a.shape(1), a.shape(2), a.shape(3)});
  std::copy(a.data(), a.data() + a.numel(), out.data());
  std::copy(b.data(), b.data() + b.numel(), out.data() + a.numel());
  return out;
}

/// Split gradient of a channel concat back into the two parts.
std::pair<Tensor, Tensor> split_channels(const Tensor& grad, std::int32_t c_first,
                                         std::int32_t c_second) {
  assert(grad.shape(0) == c_first + c_second);
  Tensor ga({c_first, grad.shape(1), grad.shape(2), grad.shape(3)});
  Tensor gb({c_second, grad.shape(1), grad.shape(2), grad.shape(3)});
  std::copy(grad.data(), grad.data() + ga.numel(), ga.data());
  std::copy(grad.data() + ga.numel(), grad.data() + grad.numel(), gb.data());
  return {std::move(ga), std::move(gb)};
}

}  // namespace

UNet3d::UNet3d(UNet3dConfig config)
    : config_(config), scratch_(std::make_unique<InferenceScratch>()) {
  config_.validate();
  util::Rng rng(config_.seed);
  std::int32_t in_c = config_.in_channels;
  for (std::int32_t level = 0; level < config_.depth; ++level) {
    const std::int32_t out_c = config_.base_channels << level;
    encoders_.push_back(std::make_unique<ResidualBlock3d>(in_c, out_c, rng));
    pools_.emplace_back();
    in_c = out_c;
  }
  const std::int32_t bottom_c = config_.base_channels << config_.depth;
  bottleneck_ = std::make_unique<ResidualBlock3d>(in_c, bottom_c, rng);

  std::int32_t up_c = bottom_c;
  for (std::int32_t level = config_.depth - 1; level >= 0; --level) {
    const std::int32_t skip_c = config_.base_channels << level;
    upsamples_.emplace_back();
    decoders_.push_back(std::make_unique<ResidualBlock3d>(up_c + skip_c, skip_c, rng));
    up_c = skip_c;
  }
  head_ = std::make_unique<Conv3d>(up_c, 1, 1, rng);
  head_->bias().value.fill(config_.head_bias_init);
}

void UNet3d::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& e : encoders_) e->collect_parameters(out);
  bottleneck_->collect_parameters(out);
  for (auto& d : decoders_) d->collect_parameters(out);
  head_->collect_parameters(out);
}

void UNet3d::set_training(bool training) {
  Module::set_training(training);
  for (auto& e : encoders_) e->set_training(training);
  for (auto& p : pools_) p.set_training(training);
  bottleneck_->set_training(training);
  for (auto& u : upsamples_) u.set_training(training);
  for (auto& d : decoders_) d->set_training(training);
  head_->set_training(training);
}

Tensor UNet3d::forward(const Tensor& input) {
  assert(input.dim() == 4 && input.shape(0) == config_.in_channels);
  if (!training()) {
    scratch_->rewind();
    return infer(input);  // copies the logits out of the arena
  }
  skip_shapes_.clear();
  skip_channels_.clear();

  Tensor x = input;
  std::vector<Tensor> skips;
  for (std::int32_t level = 0; level < config_.depth; ++level) {
    x = encoders_[std::size_t(level)]->forward(x);
    skips.push_back(x);
    skip_shapes_.push_back(x.shape());
    skip_channels_.push_back(x.shape(0));
    x = pools_[std::size_t(level)].forward(x);
  }
  x = bottleneck_->forward(x);

  for (std::int32_t i = 0; i < config_.depth; ++i) {
    const std::int32_t level = config_.depth - 1 - i;
    const auto& skip = skips[std::size_t(level)];
    upsamples_[std::size_t(i)].set_target(skip.shape(1), skip.shape(2), skip.shape(3));
    Tensor up = upsamples_[std::size_t(i)].forward(x);
    x = decoders_[std::size_t(i)]->forward(concat_channels(up, skip));
  }
  return head_->forward(x);
}

const Tensor& UNet3d::infer(const Tensor& input) {
  assert(input.dim() == 4 && input.shape(0) == config_.in_channels);
  InferenceScratch& arena = *scratch_;
  infer_skips_.clear();

  const Tensor* x = &input;
  for (std::int32_t level = 0; level < config_.depth; ++level) {
    const Tensor& enc = encoders_[std::size_t(level)]->infer(*x, arena);
    infer_skips_.push_back(&enc);
    Tensor& pooled = arena.push({enc.shape(0), MaxPool3d::out_dim(enc.shape(1)),
                                 MaxPool3d::out_dim(enc.shape(2)),
                                 MaxPool3d::out_dim(enc.shape(3))});
    pools_[std::size_t(level)].infer_into(enc.data(), enc.shape(0), enc.shape(1),
                                          enc.shape(2), enc.shape(3),
                                          pooled.data());
    x = &pooled;
  }
  x = &bottleneck_->infer(*x, arena);

  for (std::int32_t i = 0; i < config_.depth; ++i) {
    const std::int32_t level = config_.depth - 1 - i;
    const Tensor& skip = *infer_skips_[std::size_t(level)];
    const std::int32_t up_c = x->shape(0);
    const std::int64_t spatial =
        std::int64_t(skip.shape(1)) * skip.shape(2) * skip.shape(3);
    // The upsample writes the first up_c channels of the concat buffer and
    // the skip is copied in behind it — no separate concatenation pass.
    Tensor& cat = arena.push(
        {up_c + skip.shape(0), skip.shape(1), skip.shape(2), skip.shape(3)});
    upsamples_[std::size_t(i)].set_target(skip.shape(1), skip.shape(2),
                                          skip.shape(3));
    upsamples_[std::size_t(i)].infer_into(x->data(), up_c, x->shape(1),
                                          x->shape(2), x->shape(3), cat.data());
    std::copy(skip.data(), skip.data() + skip.numel(),
              cat.data() + std::int64_t(up_c) * spatial);
    x = &decoders_[std::size_t(i)]->infer(cat, arena);
  }

  Tensor& logits = arena.push({1, x->shape(1), x->shape(2), x->shape(3)});
  head_->infer_into(x->data(), x->shape(1), x->shape(2), x->shape(3), arena,
                    logits.data());
  return logits;
}

Tensor UNet3d::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  Tensor grad = head_->backward(grad_output);

  // Skip-connection gradients accumulate here, indexed by encoder level.
  std::vector<Tensor> skip_grads(std::size_t(config_.depth));

  for (std::int32_t i = config_.depth - 1; i >= 0; --i) {
    const std::int32_t level = config_.depth - 1 - i;
    Tensor grad_cat = decoders_[std::size_t(i)]->backward(grad);
    const std::int32_t skip_c = skip_channels_[std::size_t(level)];
    const std::int32_t up_c = grad_cat.shape(0) - skip_c;
    auto [g_up, g_skip] = split_channels(grad_cat, up_c, skip_c);
    skip_grads[std::size_t(level)] = std::move(g_skip);
    grad = upsamples_[std::size_t(i)].backward(g_up);
  }

  grad = bottleneck_->backward(grad);

  for (std::int32_t level = config_.depth - 1; level >= 0; --level) {
    Tensor g = pools_[std::size_t(level)].backward(grad);
    g += skip_grads[std::size_t(level)];
    grad = encoders_[std::size_t(level)]->backward(g);
  }
  return grad;
}

}  // namespace oar::nn
