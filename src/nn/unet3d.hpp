#pragma once

// 3D Residual U-Net (paper Fig. 4): the arbitrary-size, image-in-image-out
// backbone of the Steiner-point selector.
//
// Encoder: `depth` levels of ResidualBlock3d + 2x max pooling (ceil mode);
// bottleneck residual block; decoder mirrors the encoder with nearest
// upsampling *to the exact skip size* followed by channel concatenation and
// a residual block; a final 1x1x1 convolution maps to a single logit per
// vertex.  Because pooling uses ceil semantics and upsampling targets the
// recorded skip dimensions, any (H, V, M) input produces an (H, V, M)
// output — the paper's "any length, any width, any number of routing
// layers" property.
//
// The output is raw logits; callers apply Sigmoid (inference) or the
// numerically stable BCE-with-logits loss (training).

#include <memory>
#include <vector>

#include "nn/inference.hpp"
#include "nn/pool3d.hpp"
#include "nn/residual_block.hpp"

namespace oar::nn {

struct UNet3dConfig {
  std::int32_t in_channels = 7;
  std::int32_t base_channels = 8;  // channels at the top level; doubled per level
  std::int32_t depth = 2;          // number of pooling levels
  std::uint64_t seed = 0x5eed;
  /// Initial bias of the output head.  A negative value makes the fresh
  /// selector emit small probabilities (sigmoid(-3) ~ 0.047), which both
  /// matches the mostly-zero L_fsp labels and keeps the actor's eq.-(1)
  /// running product from vanishing before training has shaped fsp.
  float head_bias_init = -5.0f;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;

  friend bool operator==(const UNet3dConfig&, const UNet3dConfig&) = default;
};

class UNet3d : public Module {
 public:
  explicit UNet3d(UNet3dConfig config = {});

  /// (in_channels, H, V, M) -> logits (1, H, V, M).  In inference mode
  /// (set_training(false)) this rewinds the arena and runs infer(),
  /// copying the logits out; prefer infer() on the hot path.
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Single-sample inference fast path: the whole pass runs on the tiled
  /// kernels with every intermediate in this net's InferenceScratch arena
  /// and nothing retained for backward.  Returns the arena-owned logits
  /// (1, H, V, M), valid until the arena is rewound.  infer() never
  /// rewinds the arena itself, so callers may push the input tensor into
  /// the arena first (SteinerSelector does); callers own the rewind.
  const Tensor& infer(const Tensor& input);

  /// This net's arena (one per net — the per-worker threading contract of
  /// DESIGN.md §11 follows from per-worker selectors).
  InferenceScratch& inference_scratch() { return *scratch_; }
  void collect_parameters(std::vector<Parameter*>& out) override;
  void set_training(bool training) override;

  const UNet3dConfig& config() const { return config_; }

  // Read-only structure access for the int8 calibrator (nn/quant).
  std::int32_t depth() const { return std::int32_t(encoders_.size()); }
  const ResidualBlock3d& encoder(std::int32_t i) const { return *encoders_[i]; }
  const ResidualBlock3d& bottleneck_block() const { return *bottleneck_; }
  /// Deepest-first, matching the decode order.
  const ResidualBlock3d& decoder_block(std::int32_t i) const {
    return *decoders_[i];
  }
  const Conv3d& head_conv() const { return *head_; }

 private:
  UNet3dConfig config_;
  std::vector<std::unique_ptr<ResidualBlock3d>> encoders_;
  std::vector<MaxPool3d> pools_;
  std::unique_ptr<ResidualBlock3d> bottleneck_;
  std::vector<UpsampleNearest3d> upsamples_;                 // deepest first
  std::vector<std::unique_ptr<ResidualBlock3d>> decoders_;   // deepest first
  std::unique_ptr<Conv3d> head_;

  // Forward caches.
  std::vector<std::vector<std::int32_t>> skip_shapes_;
  std::vector<std::int32_t> skip_channels_;

  // Inference engine state: the arena (unique_ptr so the net stays
  // movable) and the reused skip-pointer list (capacity persists across
  // calls — no allocation once warm).
  std::unique_ptr<InferenceScratch> scratch_;
  std::vector<const Tensor*> infer_skips_;
};

}  // namespace oar::nn
