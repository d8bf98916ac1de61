#include "nn/pool3d.hpp"

#include <algorithm>
#include <limits>

namespace oar::nn {

namespace {

/// Nearest-neighbour source index along one axis, min(d - 1, o * d / t)
/// for o in [0, t): tabulated on the stack once per call, or divided per
/// lookup when t is longer than the table (far beyond any grid extent).
class SourceIndex {
 public:
  SourceIndex(std::int32_t d, std::int32_t t) : d_(d), t_(t) {
    if (t <= kTable) {
      for (std::int32_t o = 0; o < t; ++o) table_[o] = divide(o);
    }
  }
  std::int32_t operator[](std::int32_t o) const {
    return t_ <= kTable ? table_[o] : divide(o);
  }

 private:
  static constexpr std::int32_t kTable = 256;
  std::int32_t divide(std::int32_t o) const {
    return std::min(d_ - 1, std::int32_t(std::int64_t(o) * d_ / t_));
  }
  std::int32_t d_, t_;
  std::int32_t table_[kTable] = {};
};

}  // namespace

Tensor MaxPool3d::forward(const Tensor& input) {
  assert(input.dim() == 4);
  const std::int32_t C = input.shape(0), D0 = input.shape(1), D1 = input.shape(2),
                     D2 = input.shape(3);
  const std::int32_t O0 = out_dim(D0), O1 = out_dim(D1), O2 = out_dim(D2);
  if (!training()) {
    Tensor out({C, O0, O1, O2});
    infer_into(input.data(), C, D0, D1, D2, out.data());
    return out;
  }
  in_shape_ = input.shape();

  Tensor out({C, O0, O1, O2});
  argmax_.assign(std::size_t(out.numel()), 0);

  const float* x = input.data();
  float* y = out.data();
  std::int64_t oi = 0;
  for (std::int32_t c = 0; c < C; ++c) {
    const std::int64_t cbase = std::int64_t(c) * D0 * D1 * D2;
    for (std::int32_t o0 = 0; o0 < O0; ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1) {
        for (std::int32_t o2 = 0; o2 < O2; ++o2, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          for (std::int32_t z0 = o0 * 2; z0 < std::min(D0, o0 * 2 + 2); ++z0) {
            for (std::int32_t z1 = o1 * 2; z1 < std::min(D1, o1 * 2 + 2); ++z1) {
              for (std::int32_t z2 = o2 * 2; z2 < std::min(D2, o2 * 2 + 2); ++z2) {
                const std::int64_t idx =
                    cbase + (std::int64_t(z0) * D1 + z1) * D2 + z2;
                if (x[idx] > best) {
                  best = x[idx];
                  best_idx = idx;
                }
              }
            }
          }
          y[oi] = best;
          argmax_[std::size_t(oi)] = best_idx;
        }
      }
    }
  }
  return out;
}

void MaxPool3d::infer_into(const float* in, std::int32_t C, std::int32_t D0,
                           std::int32_t D1, std::int32_t D2, float* out) const {
  const std::int32_t O0 = out_dim(D0), O1 = out_dim(D1), O2 = out_dim(D2);
  std::int64_t oi = 0;
  for (std::int32_t c = 0; c < C; ++c) {
    const std::int64_t cbase = std::int64_t(c) * D0 * D1 * D2;
    for (std::int32_t o0 = 0; o0 < O0; ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1) {
        for (std::int32_t o2 = 0; o2 < O2; ++o2, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int32_t z0 = o0 * 2; z0 < std::min(D0, o0 * 2 + 2); ++z0) {
            for (std::int32_t z1 = o1 * 2; z1 < std::min(D1, o1 * 2 + 2); ++z1) {
              for (std::int32_t z2 = o2 * 2; z2 < std::min(D2, o2 * 2 + 2); ++z2) {
                best = std::max(best,
                                in[cbase + (std::int64_t(z0) * D1 + z1) * D2 + z2]);
              }
            }
          }
          out[oi] = best;
        }
      }
    }
  }
}

Tensor MaxPool3d::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  assert(!in_shape_.empty());
  Tensor grad_input(in_shape_);
  const float* go = grad_output.data();
  float* gi = grad_input.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    gi[argmax_[i]] += go[i];
  }
  return grad_input;
}

Tensor UpsampleNearest3d::forward(const Tensor& input) {
  assert(input.dim() == 4);
  assert(t0_ > 0 && t1_ > 0 && t2_ > 0);
  const std::int32_t C = input.shape(0), D0 = input.shape(1), D1 = input.shape(2),
                     D2 = input.shape(3);
  if (training()) in_shape_ = input.shape();

  Tensor out({C, t0_, t1_, t2_});
  infer_into(input.data(), C, D0, D1, D2, out.data());
  return out;
}

void UpsampleNearest3d::infer_into(const float* in, std::int32_t C,
                                   std::int32_t D0, std::int32_t D1,
                                   std::int32_t D2, float* out) const {
  assert(t0_ > 0 && t1_ > 0 && t2_ > 0);
  const SourceIndex z0(D0, t0_), z1(D1, t1_), z2(D2, t2_);
  const std::int64_t plane = std::int64_t(t1_) * t2_;
  // An output plane or row with the same source as the previous one is a
  // copy of it.
  float* y = out;
  for (std::int32_t c = 0; c < C; ++c) {
    const float* xc = in + std::int64_t(c) * D0 * D1 * D2;
    for (std::int32_t o0 = 0; o0 < t0_; ++o0) {
      if (o0 > 0 && z0[o0] == z0[o0 - 1]) {
        std::copy(y - plane, y, y);
        y += plane;
        continue;
      }
      for (std::int32_t o1 = 0; o1 < t1_; ++o1, y += t2_) {
        if (o1 > 0 && z1[o1] == z1[o1 - 1]) {
          std::copy(y - t2_, y, y);
          continue;
        }
        const float* row = xc + (std::int64_t(z0[o0]) * D1 + z1[o1]) * D2;
        for (std::int32_t o2 = 0; o2 < t2_; ++o2) y[o2] = row[z2[o2]];
      }
    }
  }
}

Tensor UpsampleNearest3d::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  assert(!in_shape_.empty());
  const std::int32_t C = in_shape_[0], D0 = in_shape_[1], D1 = in_shape_[2],
                     D2 = in_shape_[3];
  const SourceIndex z0(D0, t0_), z1(D1, t1_), z2(D2, t2_);
  Tensor grad_input(in_shape_);
  const float* go = grad_output.data();
  float* gi = grad_input.data();
  // Output order, as the forward reads: each input element adds its
  // gradients in increasing output index.  Along a row the outputs of one
  // source element are consecutive, so their sum stays in a register.
  for (std::int32_t c = 0; c < C; ++c) {
    float* gc = gi + std::int64_t(c) * D0 * D1 * D2;
    for (std::int32_t o0 = 0; o0 < t0_; ++o0) {
      for (std::int32_t o1 = 0; o1 < t1_; ++o1, go += t2_) {
        float* row = gc + (std::int64_t(z0[o0]) * D1 + z1[o1]) * D2;
        for (std::int32_t o2 = 0; o2 < t2_;) {
          const std::int32_t z = z2[o2];
          float acc = row[z];
          do {
            acc += go[o2++];
          } while (o2 < t2_ && z2[o2] == z);
          row[z] = acc;
        }
      }
    }
  }
  return grad_input;
}

}  // namespace oar::nn
