#include "nn/conv3d.hpp"

#include <cassert>
#include <cmath>

#include "nn/inference.hpp"

namespace oar::nn {

Conv3d::Conv3d(std::int32_t in_channels, std::int32_t out_channels,
               std::int32_t kernel, util::Rng& rng, std::int32_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding < 0 ? kernel / 2 : padding) {
  assert(kernel % 2 == 1);
  assert(padding_ < kernel);  // backward's input gradient needs k-1-pad >= 0
  const float stddev =
      std::sqrt(2.0f / (float(in_channels) * float(kernel) * float(kernel) * float(kernel)));
  weight_ = Parameter(
      "conv.weight",
      Tensor::randn({out_channels, in_channels, kernel, kernel, kernel}, rng, stddev));
  bias_ = Parameter("conv.bias", Tensor({out_channels}));
}

void Conv3d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

Tensor Conv3d::forward(const Tensor& input) {
  assert(input.dim() == 4);
  assert(input.shape(0) == in_channels_);

  const std::int32_t D0 = input.shape(1), D1 = input.shape(2), D2 = input.shape(3);
  const std::int32_t O0 = D0 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O1 = D1 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O2 = D2 + 2 * padding_ - kernel_ + 1;
  assert(O0 > 0 && O1 > 0 && O2 > 0);

  if (training()) input_ = input;
  Tensor out({out_channels_, O0, O1, O2});
  infer_into(input.data(), D0, D1, D2, local_inference_scratch(), out.data());
  return out;
}

}  // namespace oar::nn
