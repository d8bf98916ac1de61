#include "nn/gradcheck.hpp"

#include <algorithm>
#include <cmath>

namespace oar::nn {

namespace {

double objective(Module& module, const Tensor& input, const Tensor& weights) {
  const Tensor out = module.forward(input);
  assert(out.shape() == weights.shape());
  double s = 0.0;
  for (std::int64_t i = 0; i < out.numel(); ++i) s += double(out[i]) * weights[i];
  return s;
}

std::vector<std::int64_t> sample_indices(std::int64_t n, int max_entries,
                                         util::Rng& rng) {
  std::vector<std::int64_t> idx;
  if (n <= max_entries) {
    idx.resize(std::size_t(n));
    for (std::int64_t i = 0; i < n; ++i) idx[std::size_t(i)] = i;
  } else {
    for (int i = 0; i < max_entries; ++i) idx.push_back(rng.uniform_int(0, n - 1));
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  }
  return idx;
}

}  // namespace

GradCheckResult grad_check(Module& module, const Tensor& input,
                           const Tensor& loss_weights, util::Rng& rng,
                           double epsilon, double rtol, int max_entries,
                           double atol) {
  GradCheckResult result;

  // Finite differences verify the training path by definition;
  // inference-mode modules (e.g. a freshly constructed SteinerSelector's
  // net) would neither retain activations nor admit backward().
  module.set_training(true);

  // Analytic pass.
  module.zero_grad();
  const Tensor out = module.forward(input);
  (void)out;
  Tensor analytic_input_grad = module.backward(loss_weights);

  // Baseline objective, shared by the kink test of every probed entry.
  const double f0 = objective(module, input, loss_weights);

  // A probe sits on a ReLU-style kink when its two one-sided difference
  // quotients disagree; central differences are meaningless there, so such
  // entries are skipped rather than reported as gradient errors.
  auto update = [&](double analytic, double plus, double minus) {
    const double fwd = (plus - f0) / epsilon;
    const double bwd = (f0 - minus) / epsilon;
    const double scale = std::max({std::abs(fwd), std::abs(bwd), 1e-3});
    if (std::abs(fwd - bwd) > 0.2 * scale) return;  // non-smooth point
    const double numeric = (plus - minus) / (2.0 * epsilon);
    const double abs_err = std::abs(analytic - numeric);
    const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-3});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
    if (abs_err > atol + rtol * std::abs(numeric)) ++result.violations;
  };

  // Input gradient entries.
  Tensor probe = input;
  for (std::int64_t i : sample_indices(input.numel(), max_entries, rng)) {
    const float saved = probe[i];
    probe[i] = saved + float(epsilon);
    const double plus = objective(module, probe, loss_weights);
    probe[i] = saved - float(epsilon);
    const double minus = objective(module, probe, loss_weights);
    probe[i] = saved;
    update(analytic_input_grad[i], plus, minus);
  }

  // Parameter gradient entries.
  for (Parameter* p : module.parameters()) {
    for (std::int64_t i : sample_indices(p->value.numel(), max_entries, rng)) {
      const float saved = p->value[i];
      p->value[i] = saved + float(epsilon);
      const double plus = objective(module, input, loss_weights);
      p->value[i] = saved - float(epsilon);
      const double minus = objective(module, input, loss_weights);
      p->value[i] = saved;
      update(p->grad[i], plus, minus);
    }
  }

  result.ok = result.violations == 0;
  return result;
}

}  // namespace oar::nn
