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

// Each output row (c, o0, o1) of the pool folds its up-to-four input rows
// (z0, z1) in order, and each row folds pairwise along z2, so every
// window is still folded in (z0, z1, z2) order from -inf: NaN is never
// adopted and the first of equal maxima wins.  Only the row loops clamp
// at an odd extent; the z2 loops run over whole pairs, plus one single
// element when D2 is odd.

/// y[o] = max(y[o], x[2o], x[2o+1]) in that order, with std::max's
/// keep-the-first rule, for the O2 = ceil(D2 / 2) outputs of one row.
void max_fold_row(const float* __restrict__ x, std::int32_t D2,
                  float* __restrict__ y) {
  const std::int32_t pairs = D2 / 2;
  for (std::int32_t o = 0; o < pairs; ++o) {
    y[o] = std::max(std::max(y[o], x[2 * o]), x[2 * o + 1]);
  }
  if (D2 & 1) y[pairs] = std::max(y[pairs], x[D2 - 1]);
}

/// The interior case of max_fold_row: all four rows a, b, c, d of a 2x2
/// window pair folded into a fresh output row in one pass.
void max_fold_four_rows(const float* __restrict__ a, const float* __restrict__ b,
                        const float* __restrict__ c, const float* __restrict__ d,
                        std::int32_t D2, float* __restrict__ y) {
  const std::int32_t pairs = D2 / 2;
  constexpr float kLowest = -std::numeric_limits<float>::infinity();
  for (std::int32_t o = 0; o < pairs; ++o) {
    float m = std::max(std::max(kLowest, a[2 * o]), a[2 * o + 1]);
    m = std::max(std::max(m, b[2 * o]), b[2 * o + 1]);
    m = std::max(std::max(m, c[2 * o]), c[2 * o + 1]);
    y[o] = std::max(std::max(m, d[2 * o]), d[2 * o + 1]);
  }
  if (D2 & 1) {
    const std::int32_t z = D2 - 1;
    y[pairs] = std::max(std::max(std::max(std::max(kLowest, a[z]), b[z]), c[z]), d[z]);
  }
}

/// The training fold of one output row: the `n` input rows starting at
/// flat input indices `rows[j]` folded in order, keeping each window's
/// first strictly greater element and its index.  A window with nothing
/// above -inf keeps its first element as argmax.  Kept as a plain
/// compare-and-update on the flat index, which GCC 12 compiles to
/// maxss + cmov; selects on a row-relative index compiled to a branch
/// that mispredicts on random activations (~2.5x slower).
void argmax_fold_rows(const float* x, const std::int64_t* rows, std::int32_t n,
                      std::int32_t D2, float* __restrict__ y,
                      std::int64_t* __restrict__ arg) {
  const auto fold = [&](std::int32_t o, std::int32_t z_begin, std::int32_t z_end) {
    float best = -std::numeric_limits<float>::infinity();
    std::int64_t at = rows[0] + z_begin;
    for (std::int32_t j = 0; j < n; ++j) {
      for (std::int64_t idx = rows[j] + z_begin; idx < rows[j] + z_end; ++idx) {
        if (x[idx] > best) {
          best = x[idx];
          at = idx;
        }
      }
    }
    y[o] = best;
    arg[o] = at;
  };
  const std::int32_t pairs = D2 / 2;
  for (std::int32_t o = 0; o < pairs; ++o) fold(o, 2 * o, 2 * o + 2);
  if (D2 & 1) fold(pairs, D2 - 1, D2);
}

}  // namespace

Tensor MaxPool3d::forward(const Tensor& input) {
  assert(input.dim() == 4);
  const std::int32_t C = input.shape(0), D0 = input.shape(1), D1 = input.shape(2),
                     D2 = input.shape(3);
  const std::int32_t O0 = out_dim(D0), O1 = out_dim(D1), O2 = out_dim(D2);
  Tensor out({C, O0, O1, O2});
  if (!training()) {
    infer_into(input.data(), C, D0, D1, D2, out.data());
    return out;
  }
  in_shape_ = input.shape();
  argmax_.resize(std::size_t(out.numel()));

  const float* x = input.data();
  float* y = out.data();
  std::int64_t* arg = argmax_.data();
  for (std::int32_t c = 0; c < C; ++c) {
    for (std::int32_t o0 = 0; o0 < O0; ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1, y += O2, arg += O2) {
        std::int64_t rows[4] = {};
        std::int32_t n = 0;
        for (std::int32_t z0 = 2 * o0; z0 < std::min(D0, 2 * o0 + 2); ++z0) {
          for (std::int32_t z1 = 2 * o1; z1 < std::min(D1, 2 * o1 + 2); ++z1) {
            rows[n++] = ((std::int64_t(c) * D0 + z0) * D1 + z1) * D2;
          }
        }
        argmax_fold_rows(x, rows, n, D2, y, arg);
      }
    }
  }
  return out;
}

void MaxPool3d::infer_into(const float* in, std::int32_t C, std::int32_t D0,
                           std::int32_t D1, std::int32_t D2, float* out) const {
  const std::int32_t O0 = out_dim(D0), O1 = out_dim(D1), O2 = out_dim(D2);
  float* y = out;
  for (std::int32_t c = 0; c < C; ++c) {
    for (std::int32_t o0 = 0; o0 < O0; ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1, y += O2) {
        if (2 * o0 + 1 < D0 && 2 * o1 + 1 < D1) {
          const float* r = in + ((std::int64_t(c) * D0 + 2 * o0) * D1 + 2 * o1) * D2;
          const std::int64_t plane = std::int64_t(D1) * D2;
          max_fold_four_rows(r, r + D2, r + plane, r + plane + D2, D2, y);
          continue;
        }
        std::fill(y, y + O2, -std::numeric_limits<float>::infinity());
        for (std::int32_t z0 = 2 * o0; z0 < std::min(D0, 2 * o0 + 2); ++z0) {
          for (std::int32_t z1 = 2 * o1; z1 < std::min(D1, 2 * o1 + 2); ++z1) {
            max_fold_row(in + ((std::int64_t(c) * D0 + z0) * D1 + z1) * D2, D2, y);
          }
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
