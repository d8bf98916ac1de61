#include "rl/selector.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "nn/activations.hpp"
#include "nn/serialize.hpp"

namespace oar::rl {

/// Grid-keyed cache of the int8 first-layer state (the NNUE accumulator,
/// DESIGN.md §17): quantized base input plus the conv1 / projection int32
/// accumulators of the pin-free layout.  Per call the base is copied and
/// only the touched pin columns are patched — O(pins * 27 * OC) instead of
/// a full first-layer convolution.
struct SteinerSelector::Int8Accum {
  const HananGrid* grid = nullptr;
  std::uint64_t revision = 0;
  std::vector<float> feats;
  std::vector<std::uint8_t> base_q;
  std::vector<std::int32_t> base_acc1, base_accp;
  std::vector<std::uint8_t> q;  // patched working copies
  std::vector<std::int32_t> acc1, accp;
};

SteinerSelector::SteinerSelector(SelectorConfig config)
    : config_(config), net_(config.unet) {
  // Selectors are inference objects first: MCTS, serving and evaluation
  // all query fsp and never backprop.  Training passes flip the mode
  // explicitly (and restore it when done).
  net_.set_training(false);
}

SteinerSelector::~SteinerSelector() = default;

nn::Tensor SteinerSelector::encode(const HananGrid& grid,
                                   const std::vector<Vertex>& extra_pins) {
  nn::Tensor input(
      {hanan::kNumFeatureChannels, grid.h_dim(), grid.v_dim(), grid.m_dim()});
  hanan::encode_features_into(grid, extra_pins, input.data());
  return input;
}

void SteinerSelector::infer_fsp_into(const HananGrid& grid,
                                     const std::vector<Vertex>& extra_pins,
                                     std::vector<double>& out) {
  if (int8_active()) {
    infer_fsp_int8(grid, extra_pins, out);
    return;
  }
  if (!net_.training()) {
    nn::quant::note_fp32_forward();
    nn::InferenceScratch& arena = net_.inference_scratch();
    arena.rewind();  // infer() never rewinds, so the input slot survives
    nn::Tensor& input = arena.push(
        {hanan::kNumFeatureChannels, grid.h_dim(), grid.v_dim(), grid.m_dim()});
    features_.encode_into(grid, extra_pins, input.data());
    const nn::Tensor& logits = net_.infer(input);  // (1, H, V, M)
    out.resize(std::size_t(logits.numel()));
    nn::sigmoid_into(logits.data(), logits.numel(), out.data());
    return;
  }
  // Reference path (training mode): full re-encode + scalar forward.  Also
  // the baseline bench_infer measures the fast path against.
  const nn::Tensor input = encode(grid, extra_pins);
  const nn::Tensor logits = net_.forward(input);
  out.resize(std::size_t(logits.numel()));
  nn::sigmoid_into(logits.data(), logits.numel(), out.data());
}

std::vector<double> SteinerSelector::infer_fsp(const HananGrid& grid,
                                               const std::vector<Vertex>& extra_pins) {
  std::vector<double> fsp;
  infer_fsp_into(grid, extra_pins, fsp);
  return fsp;
}

std::vector<Vertex> SteinerSelector::top_k_valid(const HananGrid& grid,
                                                 const std::vector<double>& fsp,
                                                 std::int32_t k,
                                                 const std::vector<Vertex>& extra_pins) {
  if (k <= 0) return {};
  std::unordered_set<Vertex> banned(extra_pins.begin(), extra_pins.end());
  std::vector<std::pair<double, Vertex>> scored;
  scored.reserve(std::size_t(grid.num_vertices()));
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    if (grid.is_blocked(v) || grid.is_pin(v) || banned.count(v)) continue;
    scored.emplace_back(fsp[std::size_t(grid.priority_of(v))], v);
  }
  const std::size_t take = std::min<std::size_t>(std::size_t(k), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + std::ptrdiff_t(take), scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first || (a.first == b.first && a.second < b.second);
                    });
  std::vector<Vertex> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

std::vector<Vertex> SteinerSelector::select_steiner_points(
    const HananGrid& grid, std::int32_t k, const std::vector<Vertex>& extra_pins) {
  const std::vector<double> fsp = infer_fsp(grid, extra_pins);
  return top_k_valid(grid, fsp, k, extra_pins);
}

// ---------------------------------------------------------------------------
// int8 inference path.
// ---------------------------------------------------------------------------

bool SteinerSelector::int8_active() const {
  return int8_ != nullptr &&
         config_.infer.precision == nn::InferConfig::Precision::kInt8 &&
         !net_.training();
}

void SteinerSelector::set_precision(nn::InferConfig::Precision p) {
  config_.infer.precision = p;
}

void SteinerSelector::calibrate_int8(
    const std::vector<const HananGrid*>& grids) {
  if (grids.empty()) {
    throw std::invalid_argument(
        "SteinerSelector::calibrate_int8: empty calibration set");
  }
  nn::quant::QuantCalibrator cal(net_);
  std::vector<float> feats;
  for (const HananGrid* g : grids) {
    const std::int64_t chan =
        std::int64_t(g->h_dim()) * g->v_dim() * g->m_dim();
    feats.resize(std::size_t(hanan::kNumFeatureChannels) * std::size_t(chan));
    hanan::encode_features_into(*g, {}, feats.data());
    cal.observe(feats.data(), g->h_dim(), g->v_dim(), g->m_dim());
  }
  int8_ = cal.finish();
  accum_ = std::make_unique<Int8Accum>();
  config_.infer.precision = nn::InferConfig::Precision::kInt8;
}

void SteinerSelector::infer_fsp_int8(const HananGrid& grid,
                                     const std::vector<Vertex>& extra_pins,
                                     std::vector<double>& out) {
  const std::int32_t H = grid.h_dim(), V = grid.v_dim(), M = grid.m_dim();
  const std::int64_t S = std::int64_t(H) * V * M;
  Int8Accum& a = *accum_;
  const std::int32_t icp = int8_->input_icp();
  const std::int32_t OC = int8_->first_layer_oc();
  const bool proj = int8_->first_layer_has_proj();

  if (a.grid != &grid || a.revision != grid.revision()) {
    a.grid = &grid;
    a.revision = grid.revision();
    a.feats.resize(std::size_t(hanan::kNumFeatureChannels) * std::size_t(S));
    // Shares the float base volume with the fp32 path's FeatureCache.
    features_.encode_into(grid, {}, a.feats.data());
    a.base_q.resize(std::size_t(S) * std::size_t(icp));
    int8_->quantize_input(a.feats.data(), H, V, M, a.base_q.data());
    a.base_acc1.resize(std::size_t(S) * std::size_t(OC));
    if (proj) a.base_accp.resize(std::size_t(S) * std::size_t(OC));
    int8_->first_layer_acc(a.base_q.data(), H, V, M, a.base_acc1.data(),
                           proj ? a.base_accp.data() : nullptr);
    nn::quant::note_accumulator_rebuild();
  } else {
    nn::quant::note_accumulator_hit();
  }

  a.q.assign(a.base_q.begin(), a.base_q.end());
  a.acc1.assign(a.base_acc1.begin(), a.base_acc1.end());
  if (proj) a.accp.assign(a.base_accp.begin(), a.base_accp.end());

  // Patch pin flips: input channel 0 goes 0 -> 1 at each extra pin, which
  // shifts the conv1 accumulator at output voxel (pin + 1 - k) per tap by
  // the precomputed delta column.  Set semantics (skip voxels already at
  // q_pin) keep base pins and duplicate extra pins exact, mirroring the
  // FeatureCache float patch.
  const std::uint8_t qpin = int8_->quantized_one(0);
  const auto& dcol = int8_->pin_delta();
  const auto& dproj = int8_->pin_delta_proj();
  for (const Vertex pv : extra_pins) {
    const hanan::Cell c = grid.cell(pv);
    const std::int64_t vox = (std::int64_t(c.h) * V + c.v) * M + c.m;
    std::uint8_t& qb = a.q[std::size_t(vox * icp)];
    if (qb == qpin) continue;
    qb = qpin;
    if (proj) {
      std::int32_t* ap = a.accp.data() + vox * OC;
      for (std::int32_t oc = 0; oc < OC; ++oc) ap[oc] += dproj[std::size_t(oc)];
    }
    for (std::int32_t k0 = 0; k0 < 3; ++k0) {
      const std::int32_t o0 = c.h + 1 - k0;
      if (o0 < 0 || o0 >= H) continue;
      for (std::int32_t k1 = 0; k1 < 3; ++k1) {
        const std::int32_t o1 = c.v + 1 - k1;
        if (o1 < 0 || o1 >= V) continue;
        for (std::int32_t k2 = 0; k2 < 3; ++k2) {
          const std::int32_t o2 = c.m + 1 - k2;
          if (o2 < 0 || o2 >= M) continue;
          const std::int32_t tap = (k0 * 3 + k1) * 3 + k2;
          std::int32_t* av =
              a.acc1.data() + ((std::int64_t(o0) * V + o1) * M + o2) * OC;
          const std::int32_t* d = dcol.data() + std::int64_t(tap) * OC;
          for (std::int32_t oc = 0; oc < OC; ++oc) av[oc] += d[oc];
        }
      }
    }
  }

  int8_->infer_from_first_layer(a.q.data(), a.acc1.data(),
                                proj ? a.accp.data() : nullptr, H, V, M, out);
}

bool SteinerSelector::save(const std::string& path) {
  return nn::save_parameters(net_, path);
}

bool SteinerSelector::load(const std::string& path) {
  int8_.reset();  // weights change invalidates the pack
  accum_.reset();
  return nn::load_parameters(net_, path);
}

void SteinerSelector::copy_weights_from(SteinerSelector& other) {
  int8_.reset();
  accum_.reset();
  nn::copy_parameters(net_, other.net_);
}

std::unique_ptr<SteinerSelector> SteinerSelector::replica() {
  auto r = std::make_unique<SteinerSelector>(config_);
  r->copy_weights_from(*this);
  r->net_.set_training(net_.training());
  if (int8_) {
    r->int8_ = std::make_unique<nn::quant::QuantizedUNet3d>(*int8_);
    r->accum_ = std::make_unique<Int8Accum>();
  }
  return r;
}

}  // namespace oar::rl
