#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/conv3d.hpp"
#include "nn/inference.hpp"

// Convolution kernels: the inference forward (single-sample and batched)
// and the training backward.  Kept in their own translation unit so the
// build can compile just this file at -O3 with the host's vector ISA (see
// src/nn/CMakeLists.txt).  Every Conv3d pass runs here, training included,
// so training numerics follow the host ISA: bitwise-reproducible on one
// host, not across ISAs (DESIGN.md §11).
//
// For the channel counts the U-Net instantiates we run a direct convolution
// with a register tile of TILE output voxels (a run along the innermost,
// layer axis) x OC accumulators; both extents are template constants so the
// accumulators live in registers and the per-weight axpy fully unrolls.
// This beats im2col here because routing volumes are shallow (M ~ 2..8): the
// contiguous runs im2col copies are only M long, so patch assembly costs as
// much as the GEMM it feeds.  Other channel counts fall back to an im2col +
// register-blocked GEMM that handles any OC.
//
// Backward reuses the forward machinery: the input gradient is the
// convolution of the output gradient with the flipped, IC<->OC transposed
// weights at padding k-1-pad, and the weight gradient has one
// vector-register kernel of its own (weight_grad below).

namespace oar::nn {

namespace {

/// Accumulate one (TILE output voxels) x OC register tile at output line
/// position t: out voxels (n, :, o0, o1, t..t+TILE).  Weights arrive
/// transposed as wt(kk, oc) with kk = (ic, k0, k1, k2) so the accumulation
/// order matches the single-sample forward.
template <std::int32_t OC, std::int32_t TILE>
inline void conv_tile(const float* in_sample_ptr, const float* wt, const float* bias,
                      float* out_line, std::int32_t IC, std::int32_t D0,
                      std::int32_t D1, std::int32_t D2, std::int32_t kernel,
                      std::int32_t pad, std::int32_t o0, std::int32_t o1,
                      std::int32_t t, std::int64_t out_chan) {
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;

  float a[TILE][OC];
  for (std::int32_t j = 0; j < TILE; ++j) {
    for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] = bias[oc];
  }

  const float* wk = wt;
  for (std::int32_t ic = 0; ic < IC; ++ic) {
    const float* ichan = in_sample_ptr + ic * in_chan;
    for (std::int32_t k0 = 0; k0 < kernel; ++k0) {
      const std::int32_t z0 = o0 + k0 - pad;
      for (std::int32_t k1 = 0; k1 < kernel; ++k1) {
        const std::int32_t z1 = o1 + k1 - pad;
        if (z0 < 0 || z0 >= D0 || z1 < 0 || z1 >= D1) {
          wk += std::size_t(kernel) * OC;
          continue;
        }
        const float* L = ichan + std::int64_t(z0) * in_plane + std::int64_t(z1) * D2;
        for (std::int32_t k2 = 0; k2 < kernel; ++k2, wk += OC) {
          const std::int32_t z2_base = t + k2 - pad;
          const float* __restrict__ w = wk;
          for (std::int32_t j = 0; j < TILE; ++j) {
            const std::int32_t z2 = z2_base + j;
            if (std::uint32_t(z2) >= std::uint32_t(D2)) continue;
            const float s = L[z2];
            // Skipping zero activations only pays once the axpy is wide
            // enough to outweigh the branch.
            if (OC >= 16 && s == 0.0f) continue;
            for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w[oc];
          }
        }
      }
    }
  }

  // Scatter to the channel-major output: out(oc, o0, o1, t + j).
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float* orow = out_line + oc * out_chan;
    for (std::int32_t j = 0; j < TILE; ++j) orow[j] = a[j][oc];
  }
}

/// Full-line specialization for 3x3x3 same-padding convolutions whose
/// innermost (layer) extent is exactly TILE: every k2 tap then has
/// compile-time valid j bounds, so the whole accumulate is branch-free and
/// the tile never leaves registers.  This is the shape the router serves
/// constantly — shallow volumes with M = D2 in {1, 2, 4, 8}.
template <std::int32_t OC, std::int32_t TILE>
inline void conv_line3(const float* in_sample_ptr, const float* wt,
                       const float* bias, float* out_line, std::int32_t IC,
                       std::int32_t D0, std::int32_t D1, std::int32_t o0,
                       std::int32_t o1, std::int64_t out_chan) {
  constexpr std::int32_t D2 = TILE;
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;

  float a[TILE][OC];
  for (std::int32_t j = 0; j < TILE; ++j) {
    for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] = bias[oc];
  }

  const float* wk = wt;
  for (std::int32_t ic = 0; ic < IC; ++ic) {
    const float* ichan = in_sample_ptr + ic * in_chan;
    for (std::int32_t k0 = 0; k0 < 3; ++k0) {
      const std::int32_t z0 = o0 + k0 - 1;
      for (std::int32_t k1 = 0; k1 < 3; ++k1, wk += 3 * OC) {
        const std::int32_t z1 = o1 + k1 - 1;
        if (z0 < 0 || z0 >= D0 || z1 < 0 || z1 >= D1) continue;
        const float* L = ichan + std::int64_t(z0) * in_plane + std::int64_t(z1) * D2;
        const float* __restrict__ w0 = wk;            // k2 = 0: z2 = j - 1
        const float* __restrict__ w1 = wk + OC;       // k2 = 1: z2 = j
        const float* __restrict__ w2 = wk + 2 * OC;   // k2 = 2: z2 = j + 1
        for (std::int32_t j = 1; j < TILE; ++j) {
          const float s = L[j - 1];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w0[oc];
        }
        for (std::int32_t j = 0; j < TILE; ++j) {
          const float s = L[j];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w1[oc];
        }
        for (std::int32_t j = 0; j < TILE - 1; ++j) {
          const float s = L[j + 1];
          for (std::int32_t oc = 0; oc < OC; ++oc) a[j][oc] += s * w2[oc];
        }
      }
    }
  }

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float* orow = out_line + oc * out_chan;
    for (std::int32_t j = 0; j < TILE; ++j) orow[j] = a[j][oc];
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define OAR_CONV_VEC_EXT 1
/// conv_line3 with the accumulators held in native vector registers.  The
/// scalar variant above keeps a[TILE][OC] on the stack and the compiler
/// never proves it can stay in registers across the boundary-guarded tap
/// loop, so every tap pays a store-to-load round trip per accumulator —
/// measured at ~4 GFLOP/s for OC = 8 versus ~45 GFLOP/s here.  One vector
/// of OC lanes per output voxel only makes sense for narrow OC (8 or 16);
/// wider channel counts would spill the TILE accumulators right back to the
/// stack.  The per-element accumulation order is identical to conv_line3,
/// so the two kernels agree bit-for-bit under this file's FP flags.  LDW is
/// the row stride of `wt`: OC for a whole layer, wider when the caller
/// splits a wide layer into OC-channel chunks.
template <std::int32_t OC, std::int32_t TILE, std::int32_t LDW = OC>
inline void conv_line3_vec(const float* in_sample_ptr, const float* wt,
                           const float* bias, float* out_line, std::int32_t IC,
                           std::int32_t D0, std::int32_t D1, std::int32_t o0,
                           std::int32_t o1, std::int64_t out_chan) {
  typedef float Vec __attribute__((vector_size(OC * sizeof(float))));
  constexpr std::int32_t D2 = TILE;
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;

  Vec b;
  __builtin_memcpy(&b, bias, sizeof(b));
  Vec a[TILE];
  for (std::int32_t j = 0; j < TILE; ++j) a[j] = b;

  const float* wk = wt;
  for (std::int32_t ic = 0; ic < IC; ++ic) {
    const float* ichan = in_sample_ptr + ic * in_chan;
    for (std::int32_t k0 = 0; k0 < 3; ++k0) {
      const std::int32_t z0 = o0 + k0 - 1;
      for (std::int32_t k1 = 0; k1 < 3; ++k1, wk += 3 * LDW) {
        const std::int32_t z1 = o1 + k1 - 1;
        if (z0 < 0 || z0 >= D0 || z1 < 0 || z1 >= D1) continue;
        const float* L = ichan + std::int64_t(z0) * in_plane + std::int64_t(z1) * D2;
        Vec w0, w1, w2;  // k2 = 0/1/2 taps: z2 = j - 1 / j / j + 1
        __builtin_memcpy(&w0, wk, sizeof(w0));
        __builtin_memcpy(&w1, wk + LDW, sizeof(w1));
        __builtin_memcpy(&w2, wk + 2 * LDW, sizeof(w2));
        for (std::int32_t j = 1; j < TILE; ++j) a[j] += L[j - 1] * w0;
        for (std::int32_t j = 0; j < TILE; ++j) a[j] += L[j] * w1;
        for (std::int32_t j = 0; j < TILE - 1; ++j) a[j] += L[j + 1] * w2;
      }
    }
  }

  for (std::int32_t oc = 0; oc < OC; ++oc) {
    float* orow = out_line + oc * out_chan;
    for (std::int32_t j = 0; j < TILE; ++j) orow[j] = a[j][oc];
  }
}
#endif  // OAR_CONV_VEC_EXT

/// conv_line3 entry point: picks the vector-register accumulator build for
/// the narrow channel counts it pays off on, the portable scalar tile
/// otherwise.  24 and 48 channels (the input gradients of the U-Net's
/// concatenating decoders) run as three vector-width channel chunks.
template <std::int32_t OC, std::int32_t TILE>
inline void conv_line3_dispatch(const float* in_sample_ptr, const float* wt,
                                const float* bias, float* out_line,
                                std::int32_t IC, std::int32_t D0,
                                std::int32_t D1, std::int32_t o0,
                                std::int32_t o1, std::int64_t out_chan) {
#ifdef OAR_CONV_VEC_EXT
  if constexpr (OC == 8 || OC == 16) {
    conv_line3_vec<OC, TILE>(in_sample_ptr, wt, bias, out_line, IC, D0, D1, o0,
                             o1, out_chan);
    return;
  }
  if constexpr (OC == 24 || OC == 48) {
    constexpr std::int32_t kChunk = OC / 3;
    for (std::int32_t c = 0; c < OC; c += kChunk) {
      conv_line3_vec<kChunk, TILE, OC>(in_sample_ptr, wt + c, bias + c,
                                       out_line + c * out_chan, IC, D0, D1, o0,
                                       o1, out_chan);
    }
    return;
  }
#endif
  conv_line3<OC, TILE>(in_sample_ptr, wt, bias, out_line, IC, D0, D1, o0, o1,
                       out_chan);
}

template <std::int32_t OC>
void direct_conv(const float* in, const float* wt, const float* bias, float* out,
                 std::int32_t N, std::int32_t IC, std::int32_t D0, std::int32_t D1,
                 std::int32_t D2, std::int32_t kernel, std::int32_t pad,
                 std::int32_t O0, std::int32_t O1, std::int32_t O2) {
  const std::int64_t in_sample = std::int64_t(IC) * D0 * D1 * D2;
  const std::int64_t out_chan = std::int64_t(O0) * O1 * O2;
  const std::int64_t out_sample = std::int64_t(OC) * out_chan;
  const std::int64_t out_plane = std::int64_t(O1) * O2;

  if (kernel == 3 && pad == 1 && O2 == D2 &&
      (D2 == 1 || D2 == 2 || D2 == 4 || D2 == 8)) {
    for (std::int32_t n = 0; n < N; ++n) {
      const float* isample = in + n * in_sample;
      float* osample = out + n * out_sample;
      for (std::int32_t o0 = 0; o0 < O0; ++o0) {
        for (std::int32_t o1 = 0; o1 < O1; ++o1) {
          float* oline =
              osample + std::int64_t(o0) * out_plane + std::int64_t(o1) * O2;
          switch (D2) {
            case 1:
              conv_line3_dispatch<OC, 1>(isample, wt, bias, oline, IC, D0, D1, o0, o1,
                                out_chan);
              break;
            case 2:
              conv_line3_dispatch<OC, 2>(isample, wt, bias, oline, IC, D0, D1, o0, o1,
                                out_chan);
              break;
            case 4:
              conv_line3_dispatch<OC, 4>(isample, wt, bias, oline, IC, D0, D1, o0, o1,
                                out_chan);
              break;
            default:
              conv_line3_dispatch<OC, 8>(isample, wt, bias, oline, IC, D0, D1, o0, o1,
                                out_chan);
              break;
          }
        }
      }
    }
    return;
  }

  for (std::int32_t n = 0; n < N; ++n) {
    const float* isample = in + n * in_sample;
    float* osample = out + n * out_sample;
    for (std::int32_t o0 = 0; o0 < O0; ++o0) {
      for (std::int32_t o1 = 0; o1 < O1; ++o1) {
        float* oline = osample + std::int64_t(o0) * out_plane + std::int64_t(o1) * O2;
        std::int32_t t = 0;
        for (; t + 8 <= O2; t += 8) {
          conv_tile<OC, 8>(isample, wt, bias, oline + t, IC, D0, D1, D2, kernel,
                           pad, o0, o1, t, out_chan);
        }
        for (; t + 4 <= O2; t += 4) {
          conv_tile<OC, 4>(isample, wt, bias, oline + t, IC, D0, D1, D2, kernel,
                           pad, o0, o1, t, out_chan);
        }
        for (; t + 2 <= O2; t += 2) {
          conv_tile<OC, 2>(isample, wt, bias, oline + t, IC, D0, D1, D2, kernel,
                           pad, o0, o1, t, out_chan);
        }
        for (; t < O2; ++t) {
          conv_tile<OC, 1>(isample, wt, bias, oline + t, IC, D0, D1, D2, kernel,
                           pad, o0, o1, t, out_chan);
        }
      }
    }
  }
}

/// 1x1x1 convolution: a per-voxel channel mix.  The spatial axis is
/// contiguous, so an axpy per (oc, ic) pair vectorizes without any patch
/// assembly.  Handles the output head and every residual projection.
void pointwise_conv(const float* in, const float* w, const float* bias,
                    float* out, std::int32_t N, std::int32_t IC, std::int32_t OC,
                    std::int64_t spatial) {
  const std::int64_t in_sample = std::int64_t(IC) * spatial;
  const std::int64_t out_sample = std::int64_t(OC) * spatial;
  for (std::int32_t n = 0; n < N; ++n) {
    const float* isample = in + n * in_sample;
    float* osample = out + n * out_sample;
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      float* __restrict__ orow = osample + oc * spatial;
      const float b = bias[oc];
      for (std::int64_t i = 0; i < spatial; ++i) orow[i] = b;
      for (std::int32_t ic = 0; ic < IC; ++ic) {
        const float s = w[std::int64_t(oc) * IC + ic];
        if (s == 0.0f) continue;
        const float* __restrict__ irow = isample + ic * spatial;
        for (std::int64_t i = 0; i < spatial; ++i) orow[i] += s * irow[i];
      }
    }
  }
}

constexpr std::int64_t kRowBlock = 128;

/// im2col + 4-row register-blocked GEMM fallback for any output-channel
/// count: out(r, oc) = bias(oc) + sum_k col(r, k) * wt(k, oc).  `acc` is a
/// caller-provided 4*OC workspace so the inner loop stays allocation-free.
void gemm_block_generic(const float* col, std::int64_t rows, std::int64_t K,
                        std::int32_t OC, const float* wt, const float* bias,
                        float* out, float* acc) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    float* __restrict__ a0 = acc;
    float* __restrict__ a1 = a0 + OC;
    float* __restrict__ a2 = a1 + OC;
    float* __restrict__ a3 = a2 + OC;
    for (std::int32_t oc = 0; oc < OC; ++oc) {
      a0[oc] = a1[oc] = a2[oc] = a3[oc] = bias[oc];
    }
    const float* c0 = col + r * K;
    const float* c1 = c0 + K;
    const float* c2 = c1 + K;
    const float* c3 = c2 + K;
    for (std::int64_t kk = 0; kk < K; ++kk) {
      const float s0 = c0[kk], s1 = c1[kk], s2 = c2[kk], s3 = c3[kk];
      if (s0 == 0.0f && s1 == 0.0f && s2 == 0.0f && s3 == 0.0f) continue;
      const float* __restrict__ w = wt + std::size_t(kk) * OC;
      for (std::int32_t oc = 0; oc < OC; ++oc) {
        a0[oc] += s0 * w[oc];
        a1[oc] += s1 * w[oc];
        a2[oc] += s2 * w[oc];
        a3[oc] += s3 * w[oc];
      }
    }
    float* o = out + r * OC;
    std::copy(a0, a0 + OC, o);
    std::copy(a1, a1 + OC, o + OC);
    std::copy(a2, a2 + OC, o + 2 * OC);
    std::copy(a3, a3 + OC, o + 3 * OC);
  }
  for (; r < rows; ++r) {
    float* __restrict__ a = acc;
    for (std::int32_t oc = 0; oc < OC; ++oc) a[oc] = bias[oc];
    const float* c0 = col + r * K;
    for (std::int64_t kk = 0; kk < K; ++kk) {
      const float s = c0[kk];
      if (s == 0.0f) continue;
      const float* __restrict__ w = wt + std::size_t(kk) * OC;
      for (std::int32_t oc = 0; oc < OC; ++oc) a[oc] += s * w[oc];
    }
    std::copy(a, a + OC, out + r * OC);
  }
}

void im2col_conv(const float* in, const float* wt, const float* bias, float* out,
                 std::int32_t N, std::int32_t IC, std::int32_t D0, std::int32_t D1,
                 std::int32_t D2, std::int32_t kernel, std::int32_t pad,
                 std::int32_t O0, std::int32_t O1, std::int32_t O2,
                 std::int32_t OC, InferenceScratch& ws) {
  const std::int64_t in_plane = std::int64_t(D1) * D2;
  const std::int64_t in_chan = std::int64_t(D0) * in_plane;
  const std::int64_t in_sample = std::int64_t(IC) * in_chan;
  const std::int64_t out_chan = std::int64_t(O0) * O1 * O2;
  const std::int64_t out_sample = std::int64_t(OC) * out_chan;
  const std::int64_t k3 = std::int64_t(kernel) * kernel * kernel;
  const std::int64_t K = std::int64_t(IC) * k3;
  const std::int64_t rows_total = std::int64_t(N) * out_chan;

  float* col = ws.col(std::size_t(kRowBlock) * std::size_t(K));
  float* prod = ws.prod(std::size_t(kRowBlock) * std::size_t(OC));
  float* acc = ws.acc(std::size_t(OC) * 4);

  for (std::int64_t r0 = 0; r0 < rows_total; r0 += kRowBlock) {
    const std::int64_t rblk = std::min(kRowBlock, rows_total - r0);

    // im2col: one row per (sample, output voxel); padding stays zero.
    std::fill(col, col + rblk * K, 0.0f);
    for (std::int64_t r = 0; r < rblk; ++r) {
      const std::int64_t row = r0 + r;
      const std::int32_t n = std::int32_t(row / out_chan);
      const std::int64_t s = row % out_chan;
      const std::int32_t o0 = std::int32_t(s / (std::int64_t(O1) * O2));
      const std::int32_t o1 = std::int32_t((s / O2) % O1);
      const std::int32_t o2 = std::int32_t(s % O2);
      float* crow = col + r * K;
      const float* isample = in + n * in_sample;
      const std::int32_t k2_lo = std::max(0, pad - o2);
      const std::int32_t k2_hi = std::min(kernel, D2 + pad - o2);
      if (k2_lo >= k2_hi) continue;
      for (std::int32_t ic = 0; ic < IC; ++ic) {
        const float* ichan = isample + ic * in_chan;
        float* cchan = crow + ic * k3;
        for (std::int32_t k0 = 0; k0 < kernel; ++k0) {
          const std::int32_t z0 = o0 + k0 - pad;
          if (z0 < 0 || z0 >= D0) continue;
          for (std::int32_t k1 = 0; k1 < kernel; ++k1) {
            const std::int32_t z1 = o1 + k1 - pad;
            if (z1 < 0 || z1 >= D1) continue;
            float* cdst = cchan + (std::int64_t(k0) * kernel + k1) * kernel + k2_lo;
            const float* isrc = ichan + std::int64_t(z0) * in_plane +
                                std::int64_t(z1) * D2 + (o2 + k2_lo - pad);
            std::copy(isrc, isrc + (k2_hi - k2_lo), cdst);
          }
        }
      }
    }

    gemm_block_generic(col, rblk, K, OC, wt, bias, prod, acc);

    // Scatter (row, oc) back to the channel-major output layout.
    for (std::int64_t r = 0; r < rblk; ++r) {
      const std::int64_t row = r0 + r;
      const std::int32_t n = std::int32_t(row / out_chan);
      const std::int64_t s = row % out_chan;
      float* obase = out + n * out_sample + s;
      const float* p = prod + r * OC;
      for (std::int32_t oc = 0; oc < OC; ++oc) {
        obase[std::int64_t(oc) * out_chan] = p[oc];
      }
    }
  }
}

/// Runs a convolution whose weights are already transposed to (K, OC),
/// kk = (ic, k0, k1, k2) — the accumulation order of every kernel here:
/// the register-tiled direct kernel for the known channel counts, the
/// im2col fallback otherwise.
void conv_transposed(const float* in, const float* wt, const float* bias,
                     float* o, std::int32_t N, std::int32_t IC, std::int32_t OC,
                     std::int32_t D0, std::int32_t D1, std::int32_t D2,
                     std::int32_t kernel, std::int32_t pad, std::int32_t O0,
                     std::int32_t O1, std::int32_t O2, InferenceScratch& ws) {
  switch (OC) {
    case 1:
      direct_conv<1>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    case 8:
      direct_conv<8>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    case 16:
      direct_conv<16>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    case 24:
      direct_conv<24>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    case 32:
      direct_conv<32>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    case 48:
      direct_conv<48>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    case 64:
      direct_conv<64>(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2);
      break;
    default:
      im2col_conv(in, wt, bias, o, N, IC, D0, D1, D2, kernel, pad, O0, O1, O2,
                  OC, ws);
      break;
  }
}

/// The channel count conv_transposed should run `c` output channels at:
/// `c` itself when a direct kernel takes it, else the next multiple of 8
/// when a direct kernel takes that (7 -> 8), else `c` on the fallback.
/// The list mirrors conv_transposed's switch.
std::int32_t direct_width(std::int32_t c) {
  const auto direct = [](std::int32_t n) {
    return n == 1 || n == 8 || n == 16 || n == 24 || n == 32 || n == 48 || n == 64;
  };
  if (direct(c)) return c;
  const std::int32_t up = (c + 7) / 8 * 8;
  return direct(up) ? up : c;
}

/// Shared tail of forward_batch and the single-sample infer_into fast path:
/// the pointwise kernel for 1x1x1, else transpose the weights to (K, OC) in
/// the workspace and run conv_transposed.
void conv_dispatch(const float* in, const float* w, const float* bias, float* o,
                   std::int32_t N, std::int32_t IC, std::int32_t OC,
                   std::int32_t D0, std::int32_t D1, std::int32_t D2,
                   std::int32_t kernel, std::int32_t pad, std::int32_t O0,
                   std::int32_t O1, std::int32_t O2, InferenceScratch& ws) {
  if (kernel == 1 && pad == 0) {
    pointwise_conv(in, w, bias, o, N, IC, OC, std::int64_t(O0) * O1 * O2);
    return;
  }

  const std::int64_t K = std::int64_t(IC) * kernel * kernel * kernel;
  float* wt = ws.wt(std::size_t(K) * std::size_t(OC));
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    for (std::int64_t kk = 0; kk < K; ++kk) {
      wt[std::size_t(kk) * std::size_t(OC) + std::size_t(oc)] = w[oc * K + kk];
    }
  }
  conv_transposed(in, wt, bias, o, N, IC, OC, D0, D1, D2, kernel, pad, O0, O1,
                  O2, ws);
}

/// Eight float lanes: the output-channel vector of the weight-gradient
/// kernel (one AVX register; narrower ISAs split it).  A GNU vector
/// extension, like `__restrict__` elsewhere in this file: GCC and Clang.
typedef float Lanes __attribute__((vector_size(8 * sizeof(float))));
constexpr std::int32_t kLanes = 8;

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

Tensor Conv3d::forward_batch(const Tensor& input) {
  assert(input.dim() == 5);
  assert(input.shape(1) == in_channels_);

  const std::int32_t N = input.shape(0);
  const std::int32_t D0 = input.shape(2), D1 = input.shape(3), D2 = input.shape(4);
  const std::int32_t O0 = D0 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O1 = D1 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O2 = D2 + 2 * padding_ - kernel_ + 1;
  assert(O0 > 0 && O1 > 0 && O2 > 0);

  Tensor out({N, out_channels_, O0, O1, O2});
  conv_dispatch(input.data(), weight_.value.data(), bias_.value.data(),
                out.data(), N, in_channels_, out_channels_, D0, D1, D2, kernel_,
                padding_, O0, O1, O2, local_inference_scratch());
  return out;
}

void Conv3d::infer_into(const float* in, std::int32_t D0, std::int32_t D1,
                        std::int32_t D2, InferenceScratch& scratch,
                        float* out) const {
  const std::int32_t O0 = D0 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O1 = D1 + 2 * padding_ - kernel_ + 1;
  const std::int32_t O2 = D2 + 2 * padding_ - kernel_ + 1;
  assert(O0 > 0 && O1 > 0 && O2 > 0);
  conv_dispatch(in, weight_.value.data(), bias_.value.data(), out, 1,
                in_channels_, out_channels_, D0, D1, D2, kernel_, padding_, O0,
                O1, O2, scratch);
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
  const std::int32_t OCP = (OC + kLanes - 1) / kLanes * kLanes;
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
  // input extent.  Narrow channel counts run padded to a direct kernel's
  // width in the workspace; the real channels are a contiguous prefix.
  Tensor grad_input(input_.shape());
  const float* w = weight_.value.data();
  if (k == 1) {
    float* wt = ws.wt(std::size_t(IC) * OC + std::size_t(IC));
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      for (std::int32_t oc = 0; oc < OC; ++oc) wt[ic * OC + oc] = w[oc * IC + ic];
    }
    std::fill(wt + IC * OC, wt + IC * OC + IC, 0.0f);
    pointwise_conv(gy, wt, wt + IC * OC, grad_input.data(), 1, OC, IC, in_vol);
    return grad_input;
  }
  const std::int32_t ICP = direct_width(IC);
  const std::int64_t Kt = OC * k3;
  float* wt = ws.wt(std::size_t(Kt) * ICP + std::size_t(ICP));
  std::fill(wt, wt + Kt * ICP + ICP, 0.0f);  // padding lanes and the bias
  for (std::int32_t oc = 0; oc < OC; ++oc) {
    for (std::int32_t ic = 0; ic < IC; ++ic) {
      const float* src = w + (std::int64_t(oc) * IC + ic) * k3;
      for (std::int64_t t = 0; t < k3; ++t) {
        wt[(oc * k3 + (k3 - 1 - t)) * ICP + ic] = src[t];
      }
    }
  }
  float* gx = ICP == IC ? grad_input.data()
                        : ws.grad_x(std::size_t(ICP) * std::size_t(in_vol));
  conv_transposed(gy, wt, wt + Kt * ICP, gx, 1, OC, ICP, O0, O1, O2, k,
                  k - 1 - padding_, D0, D1, D2, ws);
  if (gx != grad_input.data()) std::copy(gx, gx + IC * in_vol, grad_input.data());
  return grad_input;
}

}  // namespace oar::nn
