#include "nn/group_norm.hpp"

#include <cmath>

namespace oar::nn {

namespace {
/// Per-group mean / inverse sigma with the same double accumulation and
/// float narrowing as the training forward, so inference stays within
/// rounding of the reference path.
inline void group_stats(const float* x, std::int64_t group_size, float eps,
                        float* mu_out, float* inv_out) {
  double sum = 0.0, sum_sq = 0.0;
  for (std::int64_t i = 0; i < group_size; ++i) {
    const double v = x[i];
    sum += v;
    sum_sq += v * v;
  }
  const double mu = sum / double(group_size);
  const double var = std::max(0.0, sum_sq / double(group_size) - mu * mu);
  *mu_out = float(mu);
  *inv_out = float(1.0 / std::sqrt(var + eps));
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
  input_ = input;
  const std::int64_t spatial = input.numel() / channels_;
  const std::int32_t cpg = channels_ / groups_;  // channels per group
  const std::int64_t group_size = cpg * spatial;

  normalized_ = Tensor(input.shape());
  inv_sigma_.assign(std::size_t(groups_), 0.0f);
  Tensor out(input.shape());

  const float* x = input.data();
  float* nrm = normalized_.data();
  float* y = out.data();

  for (std::int32_t g = 0; g < groups_; ++g) {
    const std::int64_t base = std::int64_t(g) * group_size;
    double sum = 0.0, sum_sq = 0.0;
    for (std::int64_t i = 0; i < group_size; ++i) {
      const double v = x[base + i];
      sum += v;
      sum_sq += v * v;
    }
    const double mu = sum / double(group_size);
    const double var = std::max(0.0, sum_sq / double(group_size) - mu * mu);
    const float inv = float(1.0 / std::sqrt(var + eps_));
    inv_sigma_[std::size_t(g)] = inv;
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const float bet = beta_.value[chan];
      const std::int64_t cbase = base + std::int64_t(c) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const float n = (x[cbase + i] - float(mu)) * inv;
        nrm[cbase + i] = n;
        y[cbase + i] = gam * n + bet;
      }
    }
  }
  return out;
}

void GroupNorm::infer_into(const float* in, std::int64_t spatial,
                           float* out) const {
  const std::int32_t cpg = channels_ / groups_;
  const std::int64_t group_size = cpg * spatial;
  for (std::int32_t g = 0; g < groups_; ++g) {
    const std::int64_t base = std::int64_t(g) * group_size;
    float mu, inv;
    group_stats(in + base, group_size, eps_, &mu, &inv);
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const float bet = beta_.value[chan];
      const std::int64_t cbase = base + std::int64_t(c) * spatial;
      const float* __restrict__ xr = in + cbase;
      float* __restrict__ yr = out + cbase;
      for (std::int64_t i = 0; i < spatial; ++i) {
        yr[i] = gam * ((xr[i] - mu) * inv) + bet;
      }
    }
  }
}

void GroupNorm::infer_relu_inplace(float* x, std::int64_t spatial) const {
  const std::int32_t cpg = channels_ / groups_;
  const std::int64_t group_size = cpg * spatial;
  for (std::int32_t g = 0; g < groups_; ++g) {
    const std::int64_t base = std::int64_t(g) * group_size;
    float mu, inv;
    group_stats(x + base, group_size, eps_, &mu, &inv);
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const float bet = beta_.value[chan];
      float* __restrict__ xr = x + base + std::int64_t(c) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const float v = gam * ((xr[i] - mu) * inv) + bet;
        xr[i] = v > 0.0f ? v : 0.0f;
      }
    }
  }
}

void GroupNorm::infer_add_relu_inplace(float* x, const float* skip,
                                       std::int64_t spatial) const {
  const std::int32_t cpg = channels_ / groups_;
  const std::int64_t group_size = cpg * spatial;
  for (std::int32_t g = 0; g < groups_; ++g) {
    const std::int64_t base = std::int64_t(g) * group_size;
    float mu, inv;
    group_stats(x + base, group_size, eps_, &mu, &inv);
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const float bet = beta_.value[chan];
      const std::int64_t cbase = base + std::int64_t(c) * spatial;
      float* __restrict__ xr = x + cbase;
      const float* __restrict__ sr = skip + cbase;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const float v = gam * ((xr[i] - mu) * inv) + bet + sr[i];
        xr[i] = v > 0.0f ? v : 0.0f;
      }
    }
  }
}

Tensor GroupNorm::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  assert(input_.defined());
  const std::int64_t spatial = input_.numel() / channels_;
  const std::int32_t cpg = channels_ / groups_;
  const std::int64_t group_size = cpg * spatial;

  Tensor grad_input(input_.shape());
  const float* go = grad_output.data();
  const float* nrm = normalized_.data();
  float* gi = grad_input.data();
  float* ggam = gamma_.grad.data();
  float* gbet = beta_.grad.data();

  for (std::int32_t g = 0; g < groups_; ++g) {
    const std::int64_t base = std::int64_t(g) * group_size;
    const float inv = inv_sigma_[std::size_t(g)];

    // Per-channel parameter grads and group-level reductions.
    double sum_gy = 0.0;      // sum over group of gamma_c * go
    double sum_gy_n = 0.0;    // sum over group of gamma_c * go * normalized
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const std::int64_t cbase = base + std::int64_t(c) * spatial;
      double gg = 0.0, gb = 0.0;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const float gov = go[cbase + i];
        const float nv = nrm[cbase + i];
        gg += double(gov) * nv;
        gb += gov;
        sum_gy += double(gam) * gov;
        sum_gy_n += double(gam) * gov * nv;
      }
      ggam[chan] += float(gg);
      gbet[chan] += float(gb);
    }

    const double inv_n = 1.0 / double(group_size);
    for (std::int32_t c = 0; c < cpg; ++c) {
      const std::int32_t chan = g * cpg + c;
      const float gam = gamma_.value[chan];
      const std::int64_t cbase = base + std::int64_t(c) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const double gy = double(gam) * go[cbase + i];
        const double nv = nrm[cbase + i];
        gi[cbase + i] =
            float(inv * (gy - inv_n * sum_gy - nv * inv_n * sum_gy_n));
      }
    }
  }
  return grad_input;
}

}  // namespace oar::nn
