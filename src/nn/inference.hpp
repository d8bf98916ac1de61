#pragma once

// Inference-mode workspace arena for the single-sample U-Net fast path
// (DESIGN.md §11).
//
// Every `UNet3d::forward` in training mode heap-allocates each intermediate
// activation and retains inputs for backward; the MCTS hot loop calls it
// thousands of times per episode and never backprops.  An InferenceScratch
// owns (a) a pool of activation tensors handed out in pass order via
// push()/rewind() — ping-pong buffers sized to the layer high-water mark —
// and (b) the named flat workspaces of the convolution kernels (the
// transposed, lane-padded weights and Conv3d::backward's output-gradient
// transpose — training passes use the thread's
// local_inference_scratch()).  Everything is grow-only, so after one
// warmed-up pass of a given layout size a full inference forward performs
// zero heap allocations (asserted by tests/test_inference.cpp via an
// operator-new counting hook and the grow_events() counter below).
//
// Threading contract (mirrors route::RouterScratch): an InferenceScratch is
// NOT thread safe and must not be shared between concurrently running
// forwards.  Each UNet3d owns one (so one selector == one arena, which is
// what threads ActorCritic, the serve workers and the trainer clone pool
// correctly — they all hold per-worker selectors); standalone
// eval-mode layer forwards fall back to local_inference_scratch(), one per
// thread.
//
// Lifetime contract: tensors returned by push() stay valid until the slot
// is handed out again after a rewind().  UNet3d::infer never rewinds — the
// caller rewinds first, optionally push()es the input tensor, then runs
// infer, so arena-resident inputs survive the pass.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace oar::nn {

class InferenceScratch {
 public:
  InferenceScratch() = default;
  InferenceScratch(const InferenceScratch&) = delete;
  InferenceScratch& operator=(const InferenceScratch&) = delete;

  /// Next pooled activation tensor, re-dimensioned to `shape`; contents are
  /// unspecified.  Slots are unique_ptr-backed so the returned reference
  /// stays stable across later push() calls.
  Tensor& push(const std::vector<std::int32_t>& shape);
  /// Braced-shape variant; preferred in the hot loop because it never
  /// materializes a std::vector for the shape argument.
  Tensor& push(std::initializer_list<std::int32_t> shape);

  /// Hand all slots back without releasing memory.
  void rewind() { used_ = 0; }
  std::size_t used() const { return used_; }

  // Named kernel workspaces, grow-only.  wt: (K, OC)-transposed conv
  // weights, lane-padded, then the bias; grad_t: Conv3d::backward's
  // voxel-major output gradient.
  float* wt(std::size_t n) { return ensure(wt_, n); }
  float* grad_t(std::size_t n) { return ensure(grad_t_, n); }

  /// Number of capacity-growth events (new slot, or any slot/workspace
  /// outgrowing its storage).  A warmed-up arena must hold this constant —
  /// the allocation-freeness hook used by tests and benchmarks.
  std::uint64_t grow_events() const { return grow_events_; }

 private:
  Tensor& next_slot();
  float* ensure(std::vector<float>& v, std::size_t n);

  std::vector<std::unique_ptr<Tensor>> slots_;
  std::size_t used_ = 0;
  std::vector<float> wt_;
  std::vector<float> grad_t_;
  std::uint64_t grow_events_ = 0;
};

/// Per-thread fallback arena for inference-mode layer forwards that run
/// outside a UNet3d (which owns its own scratch).
InferenceScratch& local_inference_scratch();

}  // namespace oar::nn
