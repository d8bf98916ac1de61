#pragma once

// Stage-based training of the Steiner-point selector with combinatorial
// MCTS (paper Sec. 3.5-3.6, Figs. 8-9).
//
// One stage: generate labeled samples by running combinatorial MCTS on
// fresh random layouts of every configured size, augment 16-fold, then fit
// the selector with BCE for a few epochs of same-size batches.  The first
// `curriculum_stages` stages use curriculum learning — pin counts grow from
// 3 upward and the leaf value function uses the exact routing cost instead
// of the critic (whose predictions are still rough early on).
//
// The fit phase is data parallel: each mini-batch is sharded across
// per-worker SteinerSelector replicas, every worker accumulates gradients
// locally, and the partial gradients are tree-reduced into the master
// optimizer before clip/step.  The reduction tree is keyed by batch
// position (not worker id), so the serial and parallel paths apply
// bitwise-identical updates.  Training is fully deterministic for a fixed
// seed regardless of the worker count, and CombTrainer
// can checkpoint its complete state (weights, Adam moments, RNG stream,
// stage index) atomically after every stage and resume mid-schedule.

#include <functional>
#include <memory>
#include <vector>

#include "experience/store.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "nn/optim.hpp"
#include "rl/dataset.hpp"
#include "rl/selector.hpp"
#include "util/thread_pool.hpp"

namespace oar::rl {

struct LayoutSizeSpec {
  std::int32_t h = 16, v = 16, m = 4;
};

struct TrainConfig {
  /// Mixed-size schedule (paper: {16,24,32}^2 x {4,6,8,10}; scale down for
  /// CPU budgets).
  std::vector<LayoutSizeSpec> sizes = {{10, 10, 2}, {12, 12, 3}};
  std::int32_t layouts_per_size = 8;  // per stage (paper: 1000)
  std::int32_t stages = 4;            // paper: 32
  std::int32_t epochs_per_stage = 4;  // paper: 4
  std::int32_t batch_size = 16;       // paper: 256
  double lr = 1e-3;
  double grad_clip = 5.0;
  bool augment = true;
  std::int32_t augment_count = 16;  // how many of the 16 variants to keep
  mcts::CombMctsConfig mcts;
  std::int32_t curriculum_stages = 2;  // paper: 4
  std::int32_t min_pins = 3;
  std::int32_t max_pins = 6;
  /// Expected fraction of blocked vertices (converted to 1x3/1x4 runs).
  double obstacle_density = 0.10;
  std::uint64_t seed = 42;
  std::int32_t threads = 0;  // sample-generation workers; 0 = hardware
  /// Data-parallel fit replicas; 0 inherits the `threads` policy.  The
  /// resulting weights are bitwise independent of the worker count (see
  /// ParallelFitter), so this is purely a throughput knob.
  std::int32_t fit_workers = 0;
  /// Non-empty: train() writes an atomic checkpoint here after every stage
  /// (see nn/serialize), and load_checkpoint()/try_resume() continue a
  /// killed run mid-schedule.
  std::string checkpoint_path;
  /// Non-empty: every MCTS-labelled episode is appended to this persistent
  /// experience file (experience::Store, DESIGN.md §18) — routed tree, fsp
  /// labels, best combination — so later searches and the serving layer
  /// can warm-start from the training run's accumulated experience.
  std::string experience_path;
  /// After the last stage, calibrate the int8 engine on freshly generated
  /// layouts and run the accuracy gate (the selector falls back to fp32 if
  /// it fails) — the trained artifact then serves quantized by default.
  bool calibrate_int8 = false;
  /// Calibration layouts generated per configured size.
  std::int32_t int8_calibration_layouts = 4;

  /// Throws std::invalid_argument naming the offending field (also
  /// validates the nested `mcts` config).
  void validate() const;
};

struct StageReport {
  std::int32_t stage = 0;
  std::int32_t raw_samples = 0;      // MCTS-labeled layouts
  std::int32_t train_samples = 0;    // after augmentation
  std::int32_t experience_appends = 0;  // episodes persisted to the store
  double mean_loss = 0.0;            // BCE over the stage's last epoch
  double mean_mcts_st_mst = 0.0;     // search-tree quality during generation
  double sample_gen_seconds = 0.0;
  double train_seconds = 0.0;
  double seconds_per_sample = 0.0;   // MCTS sample-generation time
};

/// Derives the paper-style random-layout spec for one training size.
gen::RandomGridSpec training_spec(const LayoutSizeSpec& size, double obstacle_density,
                                  std::int32_t min_pins, std::int32_t max_pins);

/// Knobs of one fit_dataset call (shared by the combinatorial and
/// sequential trainers and the benches).
struct FitOptions {
  std::int32_t epochs = 1;
  std::size_t batch_size = 16;
  double grad_clip = 5.0;
  /// Data-parallel worker replicas; <= 1 runs the serial path.
  std::int32_t workers = 1;
  /// Optional shared pool; when null and workers > 1 a temporary pool is
  /// created for the duration of the call.
  util::ThreadPool* pool = nullptr;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Shards mini-batches across per-worker selector replicas.  Worker w
/// forward/backwards its contiguous shard on its own replica (the network
/// caches are not thread safe, so the gradient path stays per-sample;
/// Module::forward_batch clobbers them) and snapshots each sample's
/// gradient into a per-batch-position buffer.  The buffers are then merged
/// pairwise — a binary tree reduction keyed by batch position, NOT by
/// worker id — and the root is added into the master's parameter
/// gradients.  Because the addition tree depends only on the batch size,
/// the accumulated gradient (and therefore every Adam update) is bitwise
/// identical for any worker count; without this invariant, float
/// reassociation noise near zero-gradient entries gets amplified by Adam's
/// m/sqrt(v) normalization into visible weight divergence.  Replica
/// weights are re-synced from the master lazily after every optimizer
/// step.
class ParallelFitter {
 public:
  /// `workers` is clamped to >= 1; `pool` may be null iff workers == 1.
  ParallelFitter(SteinerSelector& master, std::int32_t workers,
                 util::ThreadPool* pool);

  /// Adds the gradient of the batch-mean masked BCE over `batch` into the
  /// master's parameter gradients (callers zero them first, e.g. via
  /// Optimizer::zero_grad) and returns the per-sample-summed batch loss.
  double accumulate_batch(const Dataset& dataset,
                          const std::vector<std::size_t>& batch);

  /// Must be called after every optimizer step: marks replica weights
  /// stale so the next batch re-syncs them from the master.
  void notify_weights_changed() { weights_dirty_ = true; }

  std::int32_t workers() const { return workers_; }

 private:
  void sync_replicas();
  /// Runs `fn(0..count-1)` on the pool when one is attached, else inline.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn);
  static double backprop_sample(SteinerSelector& selector,
                                const TrainingSample& sample, float inv_batch);

  SteinerSelector& master_;
  util::ThreadPool* pool_;
  std::int32_t workers_;
  std::vector<nn::Parameter*> master_params_;
  std::vector<std::unique_ptr<SteinerSelector>> replicas_;  // workers_ compute clones
  std::vector<std::vector<nn::Parameter*>> replica_params_;
  std::vector<std::vector<nn::Tensor>> sample_grads_;  // per batch position
  std::vector<double> sample_loss_;
  bool weights_dirty_ = true;
};

/// Supervised fit shared by the combinatorial and sequential trainers:
/// runs `options.epochs` epochs of same-size batches with masked BCE,
/// sharding each batch across `options.workers` replicas; returns the mean
/// loss of the final epoch.
double fit_dataset(SteinerSelector& selector, nn::Adam& optimizer,
                   const Dataset& dataset, const FitOptions& options,
                   util::Rng& rng);

/// Serial convenience overload (workers = 1), kept for existing callers.
double fit_dataset(SteinerSelector& selector, nn::Adam& optimizer,
                   const Dataset& dataset, std::int32_t epochs,
                   std::size_t batch_size, double grad_clip, util::Rng& rng);

/// Mean masked BCE over the whole dataset without touching gradients or
/// RNG state.  Stacks each same-size batch through Module::forward_batch
/// (one forward per sample, no backward), so it is cheap enough to run
/// every stage; it clobbers the single-sample forward caches, so call it
/// between training steps, never between a forward and its backward.
double dataset_loss(SteinerSelector& selector, const Dataset& dataset,
                    std::size_t batch_size);

class CombTrainer {
 public:
  CombTrainer(SteinerSelector& selector, TrainConfig config);

  /// Runs the next stage (sample generation + fit) and returns its report.
  StageReport run_stage();

  /// Runs every remaining stage (stage_index() .. stages-1), writing an
  /// atomic checkpoint after each one when config().checkpoint_path is set.
  std::vector<StageReport> train();

  /// Writes selector weights + Adam moments + RNG stream + stage index to
  /// `path` atomically (temp file + rename).
  bool save_checkpoint(const std::string& path);

  /// Restores state saved by save_checkpoint; on success the next
  /// run_stage() continues exactly where the checkpointed run would have.
  /// Returns false (leaving the trainer untouched) on a missing, truncated,
  /// corrupt, or architecture-mismatched file.
  bool load_checkpoint(const std::string& path);

  /// Loads config().checkpoint_path if it exists; returns true when
  /// training will resume mid-schedule.
  bool try_resume();

  std::int32_t stage_index() const { return stage_index_; }
  const TrainConfig& config() const { return config_; }

 private:
  SteinerSelector& selector_;
  TrainConfig config_;
  nn::Adam optimizer_;
  util::Rng rng_;
  std::int32_t stage_index_ = 0;
  /// Open when config_.experience_path is set; episodes append after each
  /// stage's sample generation (single writer, batched flushes).
  std::unique_ptr<experience::Store> experience_;
};

}  // namespace oar::rl
