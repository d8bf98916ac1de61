#include "nn/group_norm.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace oar::nn {

namespace {

// Group statistics and the backward reductions run up to this many groups'
// double chains in lockstep (the U-Net's blocks have 1..4 groups).
constexpr std::int32_t kLockstep = 4;

/// Calls f(std::integral_constant<int, n>{}) for n in 1..kLockstep, so the
/// lockstep loops see their group count at compile time.
template <typename F>
void with_group_count(std::int32_t n, F&& f) {
  switch (n) {
    case 4: return f(std::integral_constant<int, 4>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 2: return f(std::integral_constant<int, 2>{});
    default: return f(std::integral_constant<int, 1>{});
  }
}

struct GroupStat {
  float mu, inv;  // mean and inverse sigma, narrowed from double
};

/// Mean and inverse sigma of G consecutive groups of `group_size` elements
/// starting at x.  The groups' (sum, sum_sq) chains advance in lockstep —
/// element i of every group, then element i + 1 — so their additions
/// overlap, while each chain still adds its own elements in index order:
/// the bits of one group at a time.
template <int G>
void lockstep_stats(const float* x, std::int64_t group_size, float eps,
                    GroupStat* out) {
  double sum[G] = {}, sum_sq[G] = {};
  for (std::int64_t i = 0; i < group_size; ++i) {
    for (int g = 0; g < G; ++g) {
      const double v = x[g * group_size + i];
      sum[g] += v;
      sum_sq[g] += v * v;
    }
  }
  for (int g = 0; g < G; ++g) {
    const double mu = sum[g] / double(group_size);
    const double var = std::max(0.0, sum_sq[g] / double(group_size) - mu * mu);
    out[g] = {float(mu), float(1.0 / std::sqrt(var + eps))};
  }
}

/// Runs normalize(g, stat) for every group, after the statistics of its
/// block of up to kLockstep groups.  A block's statistics are complete
/// before any of its groups is normalized, so normalize may write x in
/// place.
template <typename F>
void for_each_group(const float* x, std::int32_t groups, std::int64_t group_size,
                    float eps, F&& normalize) {
  GroupStat stat[kLockstep] = {};
  for (std::int32_t g0 = 0; g0 < groups; g0 += kLockstep) {
    const std::int32_t n = std::min(kLockstep, groups - g0);
    with_group_count(n, [&](auto G) {
      lockstep_stats<G()>(x + std::int64_t(g0) * group_size, group_size, eps, stat);
    });
    for (std::int32_t k = 0; k < n; ++k) normalize(g0 + k, stat[k]);
  }
}

enum class Epilogue { kNone, kRelu, kAddRelu };

/// y = gn(x), then + skip and ReLU as the epilogue asks.  y may equal x.
/// The ReLU is a select, so the loop vectorizes without branches.
template <Epilogue E>
void infer_groups(const GroupNorm& gn, const float* x, const float* skip,
                  std::int64_t spatial, float* y) {
  const std::int32_t cpg = gn.num_channels() / gn.num_groups();
  const std::int64_t group_size = cpg * spatial;
  const float* gamma = gn.gamma().value.data();
  const float* beta = gn.beta().value.data();
  for_each_group(x, gn.num_groups(), group_size, gn.eps(),
                 [&](std::int32_t g, GroupStat s) {
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma[chan];
      const float bet = beta[chan];
      const std::int64_t cbase = std::int64_t(chan) * spatial;
      const float* xr = x + cbase;
      float* yr = y + cbase;
      for (std::int64_t i = 0; i < spatial; ++i) {
        float v = gam * ((xr[i] - s.mu) * s.inv) + bet;
        if constexpr (E == Epilogue::kAddRelu) v += skip[cbase + i];
        if constexpr (E != Epilogue::kNone) v = v > 0.0f ? v : 0.0f;
        yr[i] = v;
      }
    }
  });
}

/// The four backward reductions of G consecutive groups, in lockstep: per
/// channel sum(go * n) and sum(go) into the parameter gradients, and per
/// group sum(gamma * go) and sum(gamma * go * n) into sum_gy / sum_gy_n.
/// Every chain adds its elements in channel-then-voxel order.
template <int G>
void lockstep_backward_sums(const float* go, const float* nrm, const float* gamma,
                            std::int32_t cpg, std::int64_t spatial, float* ggam,
                            float* gbet, double* sum_gy, double* sum_gy_n) {
  const std::int64_t group_size = cpg * spatial;
  for (int g = 0; g < G; ++g) sum_gy[g] = sum_gy_n[g] = 0.0;
  for (std::int32_t c = 0; c < cpg; ++c) {
    double gg[G] = {}, gb[G] = {}, gam[G] = {};
    for (int g = 0; g < G; ++g) gam[g] = gamma[g * cpg + c];
    const std::int64_t cbase = std::int64_t(c) * spatial;
    for (std::int64_t i = 0; i < spatial; ++i) {
      for (int g = 0; g < G; ++g) {
        const float gov = go[g * group_size + cbase + i];
        const float nv = nrm[g * group_size + cbase + i];
        gg[g] += double(gov) * nv;
        gb[g] += gov;
        sum_gy[g] += gam[g] * gov;
        sum_gy_n[g] += gam[g] * gov * nv;
      }
    }
    for (int g = 0; g < G; ++g) {
      ggam[g * cpg + c] += float(gg[g]);
      gbet[g * cpg + c] += float(gb[g]);
    }
  }
}

}  // namespace

GroupNorm::GroupNorm(std::int32_t num_channels, std::int32_t num_groups, float eps)
    : channels_(num_channels), groups_(num_groups), eps_(eps) {
  assert(num_groups >= 1 && num_channels % num_groups == 0);
  gamma_ = Parameter("gn.gamma", Tensor::full({num_channels}, 1.0f));
  beta_ = Parameter("gn.beta", Tensor({num_channels}));
}

void GroupNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

Tensor GroupNorm::forward(const Tensor& input) {
  assert(input.dim() == 4 && input.shape(0) == channels_);
  if (!training()) {
    Tensor out(input.shape());
    infer_into(input.data(), input.numel() / channels_, out.data());
    return out;
  }
  const std::int64_t spatial = input.numel() / channels_;
  const std::int32_t cpg = channels_ / groups_;  // channels per group

  normalized_.reset_shape(input.shape());  // every element is written below
  inv_sigma_.assign(std::size_t(groups_), 0.0f);
  Tensor out(input.shape());

  const float* x = input.data();
  float* nrm = normalized_.data();
  float* y = out.data();
  for_each_group(x, groups_, cpg * spatial, eps_, [&](std::int32_t g, GroupStat s) {
    inv_sigma_[std::size_t(g)] = s.inv;
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const float bet = beta_.value[chan];
      const std::int64_t cbase = std::int64_t(chan) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const float n = (x[cbase + i] - s.mu) * s.inv;
        nrm[cbase + i] = n;
        y[cbase + i] = gam * n + bet;
      }
    }
  });
  return out;
}

void GroupNorm::infer_into(const float* in, std::int64_t spatial,
                           float* out) const {
  infer_groups<Epilogue::kNone>(*this, in, nullptr, spatial, out);
}

void GroupNorm::infer_relu_inplace(float* x, std::int64_t spatial) const {
  infer_groups<Epilogue::kRelu>(*this, x, nullptr, spatial, x);
}

void GroupNorm::infer_add_relu_inplace(float* x, const float* skip,
                                       std::int64_t spatial) const {
  infer_groups<Epilogue::kAddRelu>(*this, x, skip, spatial, x);
}

Tensor GroupNorm::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  assert(normalized_.defined());
  const std::int64_t spatial = normalized_.numel() / channels_;
  const std::int32_t cpg = channels_ / groups_;
  const std::int64_t group_size = cpg * spatial;

  Tensor grad_input(normalized_.shape());
  const float* go = grad_output.data();
  const float* nrm = normalized_.data();
  const float* gamma = gamma_.value.data();
  float* gi = grad_input.data();
  float* ggam = gamma_.grad.data();
  float* gbet = beta_.grad.data();

  const double inv_n = 1.0 / double(group_size);
  for (std::int32_t g0 = 0; g0 < groups_; g0 += kLockstep) {
    const std::int32_t n = std::min(kLockstep, groups_ - g0);
    const std::int64_t base0 = std::int64_t(g0) * group_size;
    double sum_gy[kLockstep] = {}, sum_gy_n[kLockstep] = {};
    with_group_count(n, [&](auto G) {
      lockstep_backward_sums<G()>(go + base0, nrm + base0, gamma + g0 * cpg, cpg,
                                  spatial, ggam + g0 * cpg, gbet + g0 * cpg, sum_gy,
                                  sum_gy_n);
    });
    for (std::int32_t k = 0; k < n; ++k) {
      const std::int32_t g = g0 + k;
      const float inv = inv_sigma_[std::size_t(g)];
      const double mean_gy = inv_n * sum_gy[k];
      for (std::int32_t c = 0; c < cpg; ++c) {
        const std::int32_t chan = g * cpg + c;
        const float gam = gamma[chan];
        const std::int64_t cbase = std::int64_t(chan) * spatial;
        for (std::int64_t i = 0; i < spatial; ++i) {
          const double gy = double(gam) * go[cbase + i];
          const double nv = nrm[cbase + i];
          gi[cbase + i] = float(inv * (gy - mean_gy - nv * inv_n * sum_gy_n[k]));
        }
      }
    }
  }
  return grad_input;
}

}  // namespace oar::nn
