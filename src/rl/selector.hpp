#pragma once

// The Steiner-point selector: the paper's agent (Sec. 3.1, 3.3).
//
// Wraps the 3D Residual U-Net: encodes a Hanan-grid layout (plus any
// already-selected Steiner points, treated as pins) into the 7-channel
// feature volume, runs one inference, and returns the per-vertex *final
// selected probability* fsp(v) after the sigmoid.  Probabilities are
// returned in selection-priority order — flat index (h*V + v)*M + m, the
// lexicographic (h, v, m) order the combinatorial MCTS uses — so
// fsp[grid.priority_of(vertex)] is the probability of `vertex`.

#include <memory>
#include <string>
#include <vector>

#include "hanan/features.hpp"
#include "nn/quant/quantize.hpp"
#include "nn/unet3d.hpp"

namespace oar::rl {

using hanan::HananGrid;
using hanan::Vertex;

struct SelectorConfig {
  nn::UNet3dConfig unet;
  /// Inference-path settings (precision + int8 accuracy-gate thresholds).
  nn::InferConfig infer;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const {
    unet.validate();
    infer.validate();
  }
};

class SteinerSelector {
 public:
  /// A fresh selector starts in inference mode (net().training() false):
  /// fsp queries run the single-sample inference engine (tiled kernels,
  /// arena temporaries, incremental feature cache — DESIGN.md §11).
  /// Gradient consumers (fit_dataset, PPO updates, gradcheck) switch the
  /// net to training mode for the duration of the pass and restore it.
  explicit SteinerSelector(SelectorConfig config = {});
  ~SteinerSelector();
  SteinerSelector(SteinerSelector&&) = default;
  SteinerSelector& operator=(SteinerSelector&&) = default;

  /// Encode a layout (with optional extra pins) as the network input.
  static nn::Tensor encode(const HananGrid& grid,
                           const std::vector<Vertex>& extra_pins = {});

  /// fsp(v) for every vertex, in priority order.  One network inference.
  std::vector<double> infer_fsp(const HananGrid& grid,
                                const std::vector<Vertex>& extra_pins = {});

  /// Allocation-free variant for the MCTS hot loop: writes fsp into the
  /// caller's buffer (resized to the vertex count).  In inference mode the
  /// features go straight into an arena input tensor (patched from the
  /// FeatureCache), the net runs infer(), and the sigmoid readout is one
  /// bulk pass — zero heap allocations once warm.  In training mode it
  /// falls back to the reference encode + forward path.
  void infer_fsp_into(const HananGrid& grid, const std::vector<Vertex>& extra_pins,
                      std::vector<double>& out);

  /// Select the `k` valid vertices with the highest fsp (valid: not a pin,
  /// not blocked, not in `extra_pins`).  This is the paper's top-(n-2)
  /// selection (Fig. 2).
  std::vector<Vertex> select_steiner_points(const HananGrid& grid, std::int32_t k,
                                            const std::vector<Vertex>& extra_pins = {});

  /// Same but from a precomputed fsp array (avoids re-inferring).
  static std::vector<Vertex> top_k_valid(const HananGrid& grid,
                                         const std::vector<double>& fsp,
                                         std::int32_t k,
                                         const std::vector<Vertex>& extra_pins);

  nn::UNet3d& net() { return net_; }
  const SelectorConfig& config() const { return config_; }
  hanan::FeatureCache& feature_cache() { return features_; }

  // --- int8 inference path (DESIGN.md §17) ------------------------------
  /// Calibrate the quantized engine on representative layouts (encoded
  /// without extra pins) and switch the precision to kInt8.  Throws
  /// std::invalid_argument on an empty sample set.
  void calibrate_int8(const std::vector<const HananGrid*>& grids);
  /// The quantized engine, or nullptr before calibration / after a weight
  /// reload invalidated the pack.
  nn::quant::QuantizedUNet3d* int8_engine() { return int8_.get(); }
  /// True when fsp queries are served by the int8 engine (pack present,
  /// precision kInt8, net in inference mode).
  bool int8_active() const;
  /// Flip the precision without touching the pack (the accuracy gate's
  /// fallback calls this with kFp32).
  void set_precision(nn::InferConfig::Precision p);

  bool save(const std::string& path);
  /// load / copy_weights_from drop the int8 pack (weights changed); the
  /// engine silently serves fp32 until the next calibrate_int8().
  bool load(const std::string& path);
  void copy_weights_from(SteinerSelector& other);
  /// A selector that answers fsp queries exactly like this one — same
  /// config, weights, precision, training mode and int8 pack — with its
  /// own forward state (arena, feature cache, int8 accumulator), so
  /// another thread can run forwards on it concurrently.
  std::unique_ptr<SteinerSelector> replica();

 private:
  struct Int8Accum;  // grid-keyed first-layer accumulator cache

  void infer_fsp_int8(const HananGrid& grid,
                      const std::vector<Vertex>& extra_pins,
                      std::vector<double>& out);

  SelectorConfig config_;
  nn::UNet3d net_;
  hanan::FeatureCache features_;  // single-entry (grid, revision) base cache
  std::unique_ptr<nn::quant::QuantizedUNet3d> int8_;
  std::unique_ptr<Int8Accum> accum_;
};

}  // namespace oar::rl
