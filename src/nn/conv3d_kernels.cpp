#include <algorithm>
#include <cstring>

#include "nn/conv3d.hpp"
#include "nn/inference.hpp"

// Convolution kernels: the Conv3d forward (inference and training) and the
// training backward.  Kept in their own translation unit so the build can
// compile just this file at -O3 with the host's vector ISA (see
// src/nn/CMakeLists.txt).  Every Conv3d pass runs here, training included,
// so training numerics follow the host ISA: bitwise-reproducible on one
// host, not across ISAs (DESIGN.md §11).
//
// Every kernel-k > 1 convolution runs one direct line kernel (conv_chunk):
// a register tile of TILE output voxels along the innermost (layer) axis x
// 8, 16 or 32 output-channel lanes, the accumulators held in native vector
// registers across the whole (ic, k0, k1, k2) tap walk.  It beats im2col
// here because routing volumes are shallow (M ~ 2..10): the contiguous runs
// im2col would copy are only M long, so patch assembly costs as much as the
// GEMM it feeds.  A line runs as 8-voxel chunks plus one chunk of the 1..7
// voxels left; output channels run as chunks of lane-padded weights.  Each
// element accumulates bias, then every tap in (ic, k0, k1, k2) order, and
// taps outside the input are skipped, never added as zeros — so the result
// does not depend on the chunking.  1x1x1 convolutions are a per-voxel
// channel mix over the contiguous spatial axis (pointwise_conv), which
// runs the U-Net's projections and head 2-10x faster than the line kernel.
//
// Backward reuses the forward kernel: the input gradient is the
// convolution of the output gradient with the flipped, IC<->OC transposed
// weights at padding k-1-pad, and the weight gradient has one
// vector-register kernel of its own (weight_grad below).

namespace oar::nn {

namespace {

/// Eight float lanes: the output-channel vector of the weight-gradient
/// kernel and the unit of lane padding (one AVX register; narrower ISAs
/// split it).  A GNU vector extension, like `__restrict__` elsewhere in
/// this file: GCC and Clang.
typedef float Lanes __attribute__((vector_size(8 * sizeof(float))));
constexpr std::int32_t kLanes = 8;

/// Rounds a channel count up to whole lane vectors.
std::int32_t lane_padded(std::int32_t c) { return (c + kLanes - 1) / kLanes * kLanes; }

/// Input and output extents of one convolution.
struct ConvGeom {
  std::int32_t IC, D0, D1, D2, kernel, pad, O0, O1, O2;
};

/// Runs one register tile — TILE output voxels t..t+TILE of a line x
/// LANES (8, 16 or 32) output channels — down every line (o0, o1) of
/// output plane o0, writing each tile's first `lanes` channels.  `out`
/// points at the plane's first voxel of the tile's first channel (channel
/// stride `out_chan`); `wt` holds the transposed weights wt(kk, oc) with
/// kk = (ic, k0, k1, k2), row stride `ldw`, offset to the tile's first
/// channel; `bias` is offset likewise.  The channels sit in NB vectors of
/// at most 16 lanes (one AVX-512 register; wider GNU vectors lower badly).
///
/// Output j of the tile reads input t + j + k2 - pad of each line, so taps
/// fall off the line only in a chunk that starts within `pad` of its
/// start (LEFT) or ends within kernel-1-pad of its end (RIGHT); the
/// guards below skip those taps.  SAME3 pins the kernel to the U-Net's
/// 3x3x3 same convolution (kernel 3, padding 1) at compile time: the tap
/// loops then unroll, a LEFT chunk starts the line and a RIGHT chunk ends
/// it, so every guard folds to a constant and the tile runs branch-free.
/// Any other kernel and padding runs the same code with them read at run
/// time.
template <std::int32_t TILE, std::int32_t LANES, bool SAME3, bool LEFT, bool RIGHT>
void conv_chunk(const float* in, const float* wt, std::int64_t ldw,
                const float* bias, float* out, std::int64_t out_chan,
                std::int32_t lanes, const ConvGeom& g, std::int32_t o0,
                std::int32_t t) {
  constexpr std::int32_t W = LANES < 16 ? LANES : 16, NB = LANES / W;
  typedef float Vec __attribute__((vector_size(W * sizeof(float))));
  const std::int32_t k = SAME3 ? 3 : g.kernel, pad = SAME3 ? 1 : g.pad;
  // Output j's tap k2 reads line[x0 + j + k2], read only where it falls on
  // the line.
  const std::int32_t x0 = t - pad;
  const std::int64_t in_plane = std::int64_t(g.D1) * g.D2;
  const std::int64_t in_chan = std::int64_t(g.D0) * in_plane;
  Vec b[NB];
  std::memcpy(b, bias, sizeof(b));

  for (std::int32_t o1 = 0; o1 < g.O1; ++o1) {
    Vec a[TILE][NB];
    for (std::int32_t j = 0; j < TILE; ++j) {
      for (std::int32_t v = 0; v < NB; ++v) a[j][v] = b[v];
    }

    const float* wk = wt;
    for (std::int32_t ic = 0; ic < g.IC; ++ic) {
      const float* ichan = in + ic * in_chan;
      for (std::int32_t k0 = 0; k0 < k; ++k0) {
        const std::int32_t z0 = o0 + k0 - pad;
        for (std::int32_t k1 = 0; k1 < k; ++k1, wk += k * ldw) {
          const std::int32_t z1 = o1 + k1 - pad;
          if (std::uint32_t(z0) >= std::uint32_t(g.D0) ||
              std::uint32_t(z1) >= std::uint32_t(g.D1)) {
            continue;
          }
          const float* line = ichan + std::int64_t(z0) * in_plane + std::int64_t(z1) * g.D2;
#pragma GCC unroll 4
          for (std::int32_t k2 = 0; k2 < k; ++k2) {
            Vec w[NB];
            std::memcpy(w, wk + k2 * ldw, sizeof(w));
#pragma GCC unroll 8
            for (std::int32_t j = 0; j < TILE; ++j) {
              if (LEFT && (SAME3 ? j + k2 < 1 : t + j + k2 < pad)) continue;
              if (RIGHT && (SAME3 ? j + k2 > TILE : t + j + k2 >= g.D2 + pad)) continue;
              for (std::int32_t v = 0; v < NB; ++v) a[j][v] += line[x0 + j + k2] * w[v];
            }
          }
        }
      }
    }

    // Copy the tile out before reading lanes by a variable index: such an
    // index into `a` itself would keep the accumulators on the stack for
    // the whole tap walk.
    Vec tile[TILE][NB];
    for (std::int32_t j = 0; j < TILE; ++j) {
      for (std::int32_t v = 0; v < NB; ++v) tile[j][v] = a[j][v];
    }
    float* oline = out + std::int64_t(o1) * g.O2 + t;
    for (std::int32_t l = 0; l < lanes; ++l) {
      float* orow = oline + l * out_chan;
      for (std::int32_t j = 0; j < TILE; ++j) orow[j] = tile[j][l / W][l % W];
    }
  }
}

/// conv_chunk at output line position t, with the edge guards it needs.
/// Other kernels than SAME3 always run the guarded tile.  A chunk shorter
/// than 8 voxels is the last of its line (conv_plane), so it always
/// guards the line's end.
template <std::int32_t TILE, std::int32_t LANES, bool SAME3>
void conv_chunk_at(const float* in, const float* wt, std::int64_t ldw,
                   const float* bias, float* out, std::int64_t out_chan,
                   std::int32_t lanes, const ConvGeom& g, std::int32_t o0,
                   std::int32_t t) {
  const bool left = !SAME3 || t == 0;
  const bool right = !SAME3 || TILE < 8 || t + TILE == g.O2;
  if (left && right) {
    conv_chunk<TILE, LANES, SAME3, true, true>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t);
  } else if constexpr (SAME3) {
    if (left) {
      if constexpr (TILE == 8) {
        conv_chunk<8, LANES, true, true, false>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t);
      }
    } else if (right) {
      conv_chunk<TILE, LANES, true, false, true>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t);
    } else if constexpr (TILE == 8) {
      conv_chunk<8, LANES, true, false, false>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t);
    }
  }
}

/// The last chunk of a line: its `rest` voxels (1..TILE) as one tile.
template <std::int32_t TILE, std::int32_t LANES, bool SAME3>
void conv_rest(const float* in, const float* wt, std::int64_t ldw,
               const float* bias, float* out, std::int64_t out_chan,
               std::int32_t lanes, const ConvGeom& g, std::int32_t o0,
               std::int32_t t, std::int32_t rest) {
  if (rest == TILE) {
    conv_chunk_at<TILE, LANES, SAME3>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t);
  } else if constexpr (TILE > 1) {
    conv_rest<TILE - 1, LANES, SAME3>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t,
                                      rest);
  }
}

/// Lines of up to kShortLine voxels run 32-lane tiles: their few
/// accumulators leave registers to spare, and the second vector doubles
/// the independent FMA chains of a short tile.
constexpr std::int32_t kShortLine = 4;

/// Output plane o0 for LANES channels, its lines cut into 8-voxel chunks
/// and one chunk of the 1..7 voxels left, so a line of up to 8 voxels is a
/// single tile.
template <std::int32_t LANES, bool SAME3>
void conv_plane(const float* in, const float* wt, std::int64_t ldw,
                const float* bias, float* out, std::int64_t out_chan,
                std::int32_t lanes, const ConvGeom& g, std::int32_t o0) {
  if constexpr (LANES > 16) {  // lines of up to kShortLine voxels only
    conv_rest<kShortLine, LANES, SAME3>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, 0,
                                        g.O2);
  } else {
    std::int32_t t = 0;
    for (; t + 8 <= g.O2; t += 8) {
      conv_chunk_at<8, LANES, SAME3>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t);
    }
    conv_rest<7, LANES, SAME3>(in, wt, ldw, bias, out, out_chan, lanes, g, o0, t, g.O2 - t);
  }
}

/// Convolves `in` into the OC-channel output `out` with transposed,
/// lane-padded weights wt(kk, oc) of row stride lane_padded(OC), followed
/// by lane_padded(OC) bias entries.  Output channels run in 32-lane chunks
/// (short lines only), then 16-lane ones, then one 8-lane chunk; only the
/// OC real channels are written.
template <bool SAME3>
void conv_lanes(const float* in, const float* wt, float* out, std::int32_t OC,
                const ConvGeom& g) {
  const std::int32_t ocp = lane_padded(OC);
  const float* bias = wt + std::int64_t(g.IC) * g.kernel * g.kernel * g.kernel * ocp;
  const std::int64_t out_chan = std::int64_t(g.O0) * g.O1 * g.O2;
  for (std::int32_t o0 = 0; o0 < g.O0; ++o0) {
    float* plane = out + std::int64_t(o0) * g.O1 * g.O2;
    std::int32_t c = 0;
    if (g.O2 <= kShortLine) {
      for (; c + 32 <= ocp; c += 32) {
        conv_plane<32, SAME3>(in, wt + c, ocp, bias + c, plane + c * out_chan, out_chan,
                              std::min(32, OC - c), g, o0);
      }
    }
    for (; c + 16 <= ocp; c += 16) {
      conv_plane<16, SAME3>(in, wt + c, ocp, bias + c, plane + c * out_chan, out_chan,
                            std::min(16, OC - c), g, o0);
    }
    if (c < ocp) {
      conv_plane<8, SAME3>(in, wt + c, ocp, bias + c, plane + c * out_chan, out_chan,
                           OC - c, g, o0);
    }
  }
}

/// conv_lanes with the 3x3x3 same convolution pinned at compile time.
void convolve_lanes(const float* in, const float* wt, float* out, std::int32_t OC,
                    const ConvGeom& g) {
  if (g.kernel == 3 && g.pad == 1) {
    conv_lanes<true>(in, wt, out, OC, g);
  } else {
    conv_lanes<false>(in, wt, out, OC, g);
  }
}

/// 1x1x1 convolution: a per-voxel channel mix.  The spatial axis is
/// contiguous, so an axpy per (oc, ic) pair vectorizes without any patch
/// assembly.  Handles the output head and every residual projection.
void pointwise_conv(const float* in, const float* w, const float* bias,
                    float* out, std::int32_t IC, std::int32_t OC,
                    std::int64_t spatial) {
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float* __restrict__ orow = out + oc * spatial;
    const float b = bias[oc];
    for (std::int64_t i = 0; i < spatial; ++i) orow[i] = b;
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float s = w[std::int64_t(oc) * IC + ic];
      if (s == 0.0f) continue;
      const float* __restrict__ irow = in + ic * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) orow[i] += s * irow[i];
    }
  }
}

/// Shape of one weight-gradient problem: input extent, kernel, padding and
/// output extent.
struct GradGeom {
  std::int32_t D0, D1, D2, kernel, pad, O0, O1, O2;
};

/// Accumulates the weight gradient of ICB input channels x NV lane vectors
/// of output channels into `gw`:
///   gw(oc, ic, k) += sum over output voxels o of gy(oc, o) * x(ic, o + k - pad)
/// `x` points at the first input channel; `gyt` is the output gradient
/// voxel-major with row stride `ld`, offset to the first lane; `gw` points
/// at (first oc, first ic) of the weight gradient, whose output-channel
/// stride is `K`; only the first `lanes` output channels are real.  One
/// tap at a time sweeps every output line with the ICB x NV accumulators
/// in registers, summing in raster order — so the result is a
/// deterministic function of the inputs, independent of the thread.
template <std::int32_t ICB, std::int32_t NV>
void weight_grad_tile(const float* x, const float* gyt, std::int64_t ld,
                      float* gw, std::int64_t K, std::int32_t lanes,
                      const GradGeom& g) {
  const std::int64_t in_plane = std::int64_t(g.D1) * g.D2;
  const std::int64_t in_chan = std::int64_t(g.D0) * in_plane;
  const std::int32_t k = g.kernel;
  const std::int64_t k3 = std::int64_t(k) * k * k;
  for (std::int32_t k0 = 0; k0 < k; ++k0) {
    const std::int32_t lo0 = std::max(0, g.pad - k0);
    const std::int32_t hi0 = std::min(g.O0, g.D0 + g.pad - k0);
    for (std::int32_t k1 = 0; k1 < k; ++k1) {
      const std::int32_t lo1 = std::max(0, g.pad - k1);
      const std::int32_t hi1 = std::min(g.O1, g.D1 + g.pad - k1);
      for (std::int32_t k2 = 0; k2 < k; ++k2) {
        const std::int32_t lo2 = std::max(0, g.pad - k2);
        const std::int32_t hi2 = std::min(g.O2, g.D2 + g.pad - k2);
        Lanes acc[ICB][NV] = {};
        for (std::int32_t o0 = lo0; o0 < hi0; ++o0) {
          for (std::int32_t o1 = lo1; o1 < hi1; ++o1) {
            const float* xl = x + std::int64_t(o0 + k0 - g.pad) * in_plane +
                              std::int64_t(o1 + k1 - g.pad) * g.D2 + (k2 - g.pad);
            const float* gl = gyt + (std::int64_t(o0) * g.O1 + o1) * g.O2 * ld;
            for (std::int32_t j = lo2; j < hi2; ++j) {
              Lanes gv[NV];
              for (std::int32_t v = 0; v < NV; ++v) {
                std::memcpy(&gv[v], gl + j * ld + v * kLanes, sizeof(Lanes));
              }
              for (std::int32_t b = 0; b < ICB; ++b) {
                const float s = xl[b * in_chan + j];
                for (std::int32_t v = 0; v < NV; ++v) acc[b][v] += s * gv[v];
              }
            }
          }
        }
        const std::int64_t kk = (std::int64_t(k0) * k + k1) * k + k2;
        for (std::int32_t b = 0; b < ICB; ++b) {
          for (std::int32_t v = 0; v < NV; ++v) {
            for (std::int32_t t = 0; t < kLanes; ++t) {
              const std::int32_t l = v * kLanes + t;
              if (l < lanes) gw[l * K + b * k3 + kk] += acc[b][v][t];
            }
          }
        }
      }
    }
  }
}

/// weight_grad_tile over all input channels: blocks of ICB, then the
/// remainder in halving blocks (7 channels run as 4 + 2 + 1).
template <std::int32_t ICB, std::int32_t NV>
void weight_grad_channels(std::int32_t ic, std::int32_t IC, const float* x,
                          const float* gyt, std::int64_t ld, float* gw,
                          std::int64_t K, std::int32_t lanes, const GradGeom& g) {
  const std::int64_t in_chan = std::int64_t(g.D0) * g.D1 * g.D2;
  const std::int64_t k3 = std::int64_t(g.kernel) * g.kernel * g.kernel;
  for (; ic + ICB <= IC; ic += ICB) {
    weight_grad_tile<ICB, NV>(x + ic * in_chan, gyt, ld, gw + ic * k3, K, lanes, g);
  }
  if constexpr (ICB > 1) {
    weight_grad_channels<ICB / 2, NV>(ic, IC, x, gyt, ld, gw, K, lanes, g);
  }
}

/// Accumulates the (OC, IC, k, k, k) weight gradient into `gw` from the
/// input `x` and the voxel-major output gradient `gyt` (rows of OCP =
/// OC rounded up to 8 lanes), in lane chunks of at most four vectors so
/// the accumulators stay in registers.
void weight_grad(const float* x, const float* gyt, float* gw, std::int32_t IC,
                 std::int32_t OC, std::int32_t OCP, const GradGeom& g) {
  const std::int64_t K = std::int64_t(IC) * g.kernel * g.kernel * g.kernel;
  for (std::int32_t oc = 0; oc < OC; oc += 4 * kLanes) {
    const float* gl = gyt + oc;
    float* w = gw + oc * K;
    const std::int32_t lanes = std::min(OC - oc, 4 * kLanes);
    switch ((lanes + kLanes - 1) / kLanes) {
      case 1:
        weight_grad_channels<8, 1>(0, IC, x, gl, OCP, w, K, lanes, g);
        break;
      case 2:
        weight_grad_channels<4, 2>(0, IC, x, gl, OCP, w, K, lanes, g);
        break;
      case 3:
        weight_grad_channels<2, 3>(0, IC, x, gl, OCP, w, K, lanes, g);
        break;
      default:
        weight_grad_channels<2, 4>(0, IC, x, gl, OCP, w, K, lanes, g);
        break;
    }
  }
}

}  // namespace

void Conv3d::infer_into(const float* in, std::int32_t D0, std::int32_t D1,
                        std::int32_t D2, InferenceScratch& scratch,
                        float* out) const {
  const ConvGeom g{in_channels_, D0, D1, D2, kernel_, padding_,
                   D0 + 2 * padding_ - kernel_ + 1, D1 + 2 * padding_ - kernel_ + 1,
                   D2 + 2 * padding_ - kernel_ + 1};
  assert(g.O0 > 0 && g.O1 > 0 && g.O2 > 0);
  const float* w = weight_.value.data();
  if (kernel_ == 1 && padding_ == 0) {
    pointwise_conv(in, w, bias_.value.data(), out, in_channels_, out_channels_,
                   std::int64_t(D0) * D1 * D2);
    return;
  }
  // Transpose to wt(kk, oc), rows of lane_padded(OC) with zero padding
  // lanes, then the bias.
  const std::int32_t OC = out_channels_, ocp = lane_padded(OC);
  const std::int64_t K = std::int64_t(in_channels_) * kernel_ * kernel_ * kernel_;
  float* wt = scratch.wt(std::size_t(K + 1) * std::size_t(ocp));
  for (std::int64_t kk = 0; kk <= K; ++kk) {
    std::fill(wt + kk * ocp + OC, wt + (kk + 1) * ocp, 0.0f);
  }
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    for (std::int64_t kk = 0; kk < K; ++kk) wt[kk * ocp + oc] = w[oc * K + kk];
    wt[K * ocp + oc] = bias_.value[oc];
  }
  convolve_lanes(in, wt, out, OC, g);
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  assert(training());  // inference-mode forward retains nothing
  assert(input_.defined());
  assert(grad_output.shape(0) == out_channels_);
  const std::int32_t IC = in_channels_, OC = out_channels_, k = kernel_;
  const std::int32_t D0 = input_.shape(1), D1 = input_.shape(2), D2 = input_.shape(3);
  const std::int32_t O0 = grad_output.shape(1), O1 = grad_output.shape(2),
                     O2 = grad_output.shape(3);
  const std::int64_t in_vol = std::int64_t(D0) * D1 * D2;
  const std::int64_t out_vol = std::int64_t(O0) * O1 * O2;
  const std::int64_t k3 = std::int64_t(k) * k * k;
  const float* gy = grad_output.data();
  InferenceScratch& ws = local_inference_scratch();

  // Bias gradient: per-channel sum of the output gradient, in double.
  float* gb = bias_.grad.data();
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < out_vol; ++i) sum += gy[oc * out_vol + i];
    gb[oc] += float(sum);
  }

  // Weight gradient: transpose the output gradient to voxel-major rows of
  // OCP lanes (zero-padded) for the lane kernel.  A 1x1x1 volume is one
  // line.
  const std::int32_t OCP = lane_padded(OC);
  float* gyt = ws.grad_t(std::size_t(out_vol) * std::size_t(OCP));
  for (std::int64_t i = 0; i < out_vol; ++i) {
    float* row = gyt + i * OCP;
    for (std::int32_t oc = 0; oc < OC; ++oc) row[oc] = gy[oc * out_vol + i];
    std::fill(row + OC, row + OCP, 0.0f);
  }
  const GradGeom geom =
      k == 1 ? GradGeom{1, 1, std::int32_t(in_vol), 1, 0, 1, 1, std::int32_t(out_vol)}
             : GradGeom{D0, D1, D2, k, padding_, O0, O1, O2};
  weight_grad(input_.data(), gyt, weight_.grad.data(), IC, OC, OCP, geom);

  // Input gradient: the output gradient convolved with the flipped,
  // IC<->OC transposed weights at padding k-1-pad, which restores the
  // input extent.  The IC output channels run lane-padded; the bias is
  // zero.
  Tensor grad_input(input_.shape());
  const float* w = weight_.value.data();
  if (k == 1) {
    float* wt = ws.wt(std::size_t(IC) * OC + std::size_t(IC));
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      for (std::int32_t oc = 0; oc < OC; ++oc) wt[ic * OC + oc] = w[oc * IC + ic];
    }
    std::fill(wt + IC * OC, wt + IC * OC + IC, 0.0f);
    pointwise_conv(gy, wt, wt + IC * OC, grad_input.data(), OC, IC, in_vol);
    return grad_input;
  }
  const std::int32_t icp = lane_padded(IC);
  const std::int64_t Kt = OC * k3;
  float* wt = ws.wt(std::size_t(Kt + 1) * std::size_t(icp));
  std::fill(wt, wt + (Kt + 1) * icp, 0.0f);  // padding lanes and the bias
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float* src = w + (std::int64_t(oc) * IC + ic) * k3;
      for (std::int64_t t = 0; t < k3; ++t) {
        wt[(oc * k3 + (k3 - 1 - t)) * icp + ic] = src[t];
      }
    }
  }
  convolve_lanes(gy, wt, grad_input.data(), IC,
                 ConvGeom{OC, O0, O1, O2, k, k - 1 - padding_, D0, D1, D2});
  return grad_input;
}

}  // namespace oar::nn
