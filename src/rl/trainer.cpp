#include "rl/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "experience/record.hpp"
#include "nn/loss.hpp"
#include "route/oarmst.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/augment.hpp"
#include "rl/evaluate.hpp"
#include "steiner/router_base.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace oar::rl {

namespace {

struct TrainObs {
  obs::Counter& stages;
  obs::Counter& samples;
  obs::Counter& fit_batches;
  obs::Counter& fit_samples;
  obs::Gauge& stage_loss;
  obs::Gauge& samples_per_second;
  obs::Histogram& checkpoint_seconds;
};

TrainObs& train_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static TrainObs o{
      reg.counter("oar_rl_stages_total", "Training stages completed"),
      reg.counter("oar_rl_samples_total",
                  "MCTS-labelled raw samples generated (before augmentation)"),
      reg.counter("oar_rl_fit_batches_total",
                  "Gradient batches accumulated by ParallelFitter"),
      reg.counter("oar_rl_fit_samples_total",
                  "Samples backpropagated by ParallelFitter"),
      reg.gauge("oar_rl_stage_loss", "Mean fit loss of the last stage"),
      reg.gauge("oar_rl_samples_per_second",
                "Raw-sample generation throughput of the last stage"),
      reg.histogram("oar_rl_checkpoint_seconds", obs::latency_buckets(),
                    "Wall time per training-checkpoint write"),
  };
  return o;
}

}  // namespace

void TrainConfig::validate() const {
  util::check_field(!sizes.empty(), "TrainConfig", "sizes", "be non-empty",
                    sizes.size());
  for (const LayoutSizeSpec& s : sizes) {
    util::check_field(s.h >= 2 && s.v >= 2 && s.m >= 1, "TrainConfig", "sizes",
                      "contain only specs with h, v >= 2 and m >= 1",
                      std::to_string(s.h) + "x" + std::to_string(s.v) + "x" +
                          std::to_string(s.m));
  }
  util::check_field(layouts_per_size >= 1, "TrainConfig", "layouts_per_size",
                    "be >= 1", layouts_per_size);
  util::check_field(stages >= 1, "TrainConfig", "stages", "be >= 1", stages);
  util::check_field(epochs_per_stage >= 1, "TrainConfig", "epochs_per_stage",
                    "be >= 1", epochs_per_stage);
  util::check_field(batch_size >= 1, "TrainConfig", "batch_size", "be >= 1",
                    batch_size);
  util::check_field(lr > 0.0 && std::isfinite(lr), "TrainConfig", "lr",
                    "be finite and positive", lr);
  util::check_field(grad_clip > 0.0, "TrainConfig", "grad_clip", "be positive",
                    grad_clip);
  util::check_field(augment_count >= 1 && augment_count <= 16, "TrainConfig",
                    "augment_count", "be in [1, 16]", augment_count);
  util::check_field(curriculum_stages >= 0, "TrainConfig", "curriculum_stages",
                    "be >= 0", curriculum_stages);
  util::check_field(min_pins >= 2, "TrainConfig", "min_pins", "be >= 2",
                    min_pins);
  util::check_field(max_pins >= min_pins, "TrainConfig", "max_pins",
                    "be >= min_pins", max_pins);
  util::check_field(obstacle_density >= 0.0 && obstacle_density < 1.0,
                    "TrainConfig", "obstacle_density", "be in [0, 1)",
                    obstacle_density);
  util::check_field(threads >= 0, "TrainConfig", "threads",
                    "be >= 0 (0 = hardware)", threads);
  util::check_field(fit_workers >= 0, "TrainConfig", "fit_workers",
                    "be >= 0 (0 = inherit threads)", fit_workers);
  util::check_field(int8_calibration_layouts >= 1, "TrainConfig",
                    "int8_calibration_layouts", "be >= 1",
                    int8_calibration_layouts);
  mcts.validate();
}

void FitOptions::validate() const {
  util::check_field(epochs >= 1, "FitOptions", "epochs", "be >= 1", epochs);
  util::check_field(batch_size >= 1, "FitOptions", "batch_size", "be >= 1",
                    batch_size);
  util::check_field(grad_clip > 0.0, "FitOptions", "grad_clip", "be positive",
                    grad_clip);
  util::check_field(workers >= 0, "FitOptions", "workers",
                    "be >= 0 (<= 1 runs serially)", workers);
}

gen::RandomGridSpec training_spec(const LayoutSizeSpec& size, double obstacle_density,
                                  std::int32_t min_pins, std::int32_t max_pins) {
  gen::RandomGridSpec spec;
  spec.h = size.h;
  spec.v = size.v;
  spec.m = size.m;
  spec.min_pins = min_pins;
  spec.max_pins = max_pins;
  // Paper (16x16x4): 32..64 obstacles of 3..4 cells ~= 2.7%..6% blocked.
  // Convert the requested density into a 1x3 / 1x4 run count.
  const double cells = double(size.h) * size.v * size.m;
  const double mean_len = 3.5;
  const auto target = std::int32_t(std::lround(obstacle_density * cells / mean_len));
  spec.min_obstacles = std::max(1, target / 2);
  spec.max_obstacles = std::max(spec.min_obstacles, target);
  return spec;
}

ParallelFitter::ParallelFitter(SteinerSelector& master, std::int32_t workers,
                               util::ThreadPool* pool)
    : master_(master), pool_(pool), workers_(std::max<std::int32_t>(1, workers)) {
  assert(workers_ == 1 || pool_ != nullptr);
  master_params_ = master_.net().parameters();
  // All compute runs on replicas (the master only receives the reduced
  // gradient), so the master's own gradient accumulators survive the
  // per-sample zero_grad the snapshot path needs.
  for (std::int32_t w = 0; w < workers_; ++w) {
    auto replica = std::make_unique<SteinerSelector>(master_.config());
    replica->net().set_training(true);
    replica_params_.push_back(replica->net().parameters());
    replicas_.push_back(std::move(replica));
  }
}

void ParallelFitter::sync_replicas() {
  if (!weights_dirty_) return;
  for (auto& replica : replicas_) replica->copy_weights_from(master_);
  weights_dirty_ = false;
}

void ParallelFitter::run_indexed(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) {
  if (pool_ != nullptr && count > 1) {
    pool_->parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

double ParallelFitter::backprop_sample(SteinerSelector& selector,
                                       const TrainingSample& sample,
                                       float inv_batch) {
  const nn::Tensor input = SteinerSelector::encode(sample.grid, sample.extra_pins);
  const nn::Tensor logits = selector.net().forward(input);

  nn::Tensor label({1, sample.grid.h_dim(), sample.grid.v_dim(),
                    sample.grid.m_dim()});
  nn::Tensor mask(label.shape());
  std::copy(sample.label.begin(), sample.label.end(), label.data());
  std::copy(sample.mask.begin(), sample.mask.end(), mask.data());

  nn::Tensor grad_logits;
  const double loss = nn::bce_with_logits(logits, label, grad_logits, &mask);
  grad_logits *= inv_batch;
  selector.net().backward(grad_logits);
  return loss;
}

double ParallelFitter::accumulate_batch(const Dataset& dataset,
                                        const std::vector<std::size_t>& batch) {
  if (batch.empty()) return 0.0;
  const std::size_t n = batch.size();
  train_obs().fit_batches.inc();
  train_obs().fit_samples.add(n);
  const float inv_batch = 1.0f / float(n);
  sync_replicas();
  if (sample_grads_.size() < n) sample_grads_.resize(n);
  if (sample_loss_.size() < n) sample_loss_.resize(n);

  // Contiguous shards, first `extra` one sample larger.
  const std::size_t shards = std::min<std::size_t>(std::size_t(workers_), n);
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;
  std::vector<std::size_t> bounds(shards + 1, 0);
  for (std::size_t w = 0; w < shards; ++w) {
    bounds[w + 1] = bounds[w] + base + (w < extra ? 1 : 0);
  }

  run_indexed(shards, [&](std::size_t w) {
    SteinerSelector& selector = *replicas_[w];
    const std::vector<nn::Parameter*>& params = replica_params_[w];
    for (std::size_t k = bounds[w]; k < bounds[w + 1]; ++k) {
      selector.net().zero_grad();
      sample_loss_[k] = backprop_sample(selector, dataset.sample(batch[k]),
                                        inv_batch);
      sample_grads_[k].resize(params.size());
      for (std::size_t j = 0; j < params.size(); ++j) {
        sample_grads_[k][j] = params[j]->grad;
      }
    }
  });

  // Binary-tree reduction over batch positions: at stride s, position i
  // absorbs position i+s for i = 0, 2s, 4s, ...  The addition order
  // depends only on n — never on the shard layout — so the accumulated
  // gradient is bitwise identical for every worker count.
  for (std::size_t stride = 1; stride < n; stride *= 2) {
    std::vector<std::size_t> dsts;
    for (std::size_t i = 0; i + stride < n; i += 2 * stride) dsts.push_back(i);
    run_indexed(dsts.size(), [&](std::size_t d) {
      std::vector<nn::Tensor>& dst = sample_grads_[dsts[d]];
      const std::vector<nn::Tensor>& src = sample_grads_[dsts[d] + stride];
      for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
    });
  }
  for (std::size_t j = 0; j < master_params_.size(); ++j) {
    master_params_[j]->grad += sample_grads_[0][j];
  }

  double loss = 0.0;
  for (std::size_t k = 0; k < n; ++k) loss += sample_loss_[k];
  return loss;
}

double fit_dataset(SteinerSelector& selector, nn::Adam& optimizer,
                   const Dataset& dataset, const FitOptions& options,
                   util::Rng& rng) {
  options.validate();
  if (dataset.empty()) return 0.0;
  const std::int32_t workers = std::max<std::int32_t>(1, options.workers);
  std::unique_ptr<util::ThreadPool> local_pool;
  util::ThreadPool* pool = options.pool;
  if (workers > 1 && pool == nullptr) {
    local_pool = std::make_unique<util::ThreadPool>(std::size_t(workers));
    pool = local_pool.get();
  }
  selector.net().set_training(true);
  ParallelFitter fitter(selector, workers, workers > 1 ? pool : nullptr);
  double last_epoch_loss = 0.0;
  for (std::int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (const auto& batch : dataset.epoch_batches(options.batch_size, rng)) {
      optimizer.zero_grad();
      const double batch_loss = fitter.accumulate_batch(dataset, batch);
      optimizer.clip_grad_norm(options.grad_clip);
      optimizer.step();
      fitter.notify_weights_changed();
      epoch_loss += batch_loss / double(batch.size());
      ++batches;
    }
    last_epoch_loss = batches == 0 ? 0.0 : epoch_loss / double(batches);
  }
  // Hand the selector back in its default inference mode so callers (MCTS
  // sample generation, evaluation, serving) land on the fast path again.
  selector.net().set_training(false);
  return last_epoch_loss;
}

double fit_dataset(SteinerSelector& selector, nn::Adam& optimizer,
                   const Dataset& dataset, std::int32_t epochs,
                   std::size_t batch_size, double grad_clip, util::Rng& rng) {
  FitOptions options;
  options.epochs = epochs;
  options.batch_size = batch_size;
  options.grad_clip = grad_clip;
  options.workers = 1;
  return fit_dataset(selector, optimizer, dataset, options, rng);
}

double dataset_loss(SteinerSelector& selector, const Dataset& dataset,
                    std::size_t batch_size) {
  if (dataset.empty()) return 0.0;
  double total = 0.0;
  std::size_t batches = 0;
  for (const auto& batch : dataset.ordered_batches(batch_size)) {
    const TrainingSample& first = dataset.sample(batch[0]);
    const nn::Tensor input0 = SteinerSelector::encode(first.grid, first.extra_pins);
    std::vector<std::int32_t> stacked_shape{std::int32_t(batch.size())};
    stacked_shape.insert(stacked_shape.end(), input0.shape().begin(),
                         input0.shape().end());
    nn::Tensor stacked(std::move(stacked_shape));
    const std::int64_t in_stride = input0.numel();
    std::copy(input0.data(), input0.data() + in_stride, stacked.data());
    for (std::size_t i = 1; i < batch.size(); ++i) {
      const TrainingSample& sample = dataset.sample(batch[i]);
      // Stacking assumes one layout size per batch (Dataset buckets by
      // size); a mixed batch would silently overrun in_stride.
      if (sample.grid.h_dim() != first.grid.h_dim() ||
          sample.grid.v_dim() != first.grid.v_dim() ||
          sample.grid.m_dim() != first.grid.m_dim()) {
        throw std::runtime_error(
            "dataset_loss: mixed-shape batch: sample " +
            std::to_string(batch[i]) + " is " +
            std::to_string(sample.grid.h_dim()) + "x" +
            std::to_string(sample.grid.v_dim()) + "x" +
            std::to_string(sample.grid.m_dim()) + " but the batch is " +
            std::to_string(first.grid.h_dim()) + "x" +
            std::to_string(first.grid.v_dim()) + "x" +
            std::to_string(first.grid.m_dim()));
      }
      const nn::Tensor input = SteinerSelector::encode(sample.grid, sample.extra_pins);
      std::copy(input.data(), input.data() + in_stride,
                stacked.data() + std::int64_t(i) * in_stride);
    }

    const nn::Tensor logits = selector.net().forward_batch(stacked);
    const std::int64_t out_stride = logits.numel() / std::int64_t(batch.size());
    nn::Tensor sample_logits({1, first.grid.h_dim(), first.grid.v_dim(),
                              first.grid.m_dim()});
    nn::Tensor label(sample_logits.shape());
    nn::Tensor mask(sample_logits.shape());
    double batch_loss = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const TrainingSample& sample = dataset.sample(batch[i]);
      std::copy(logits.data() + std::int64_t(i) * out_stride,
                logits.data() + std::int64_t(i + 1) * out_stride,
                sample_logits.data());
      std::copy(sample.label.begin(), sample.label.end(), label.data());
      std::copy(sample.mask.begin(), sample.mask.end(), mask.data());
      nn::Tensor grad_unused;
      batch_loss += nn::bce_with_logits(sample_logits, label, grad_unused, &mask);
    }
    total += batch_loss / double(batch.size());
    ++batches;
  }
  return total / double(batches);
}

CombTrainer::CombTrainer(SteinerSelector& selector, TrainConfig config)
    : selector_(selector),
      config_(config),
      optimizer_(selector.net().parameters(), config.lr),
      rng_(config.seed) {
  config_.validate();
  if (!config_.experience_path.empty()) {
    experience::StoreConfig sc;
    sc.memory_capacity = 0;  // the trainer only writes; no LRU needed
    sc.path = config_.experience_path;
    experience_ = std::make_unique<experience::Store>(sc);
  }
}

StageReport CombTrainer::run_stage() {
  StageReport report;
  report.stage = stage_index_;

  // Curriculum (paper Sec. 3.6): the first stages use layouts with a FIXED
  // pin count that grows from min_pins to max_pins, and the exact routing
  // cost instead of the critic.  Starting at 3 pins (a single-point budget)
  // concentrates the whole search budget on level-1 children, which is what
  // makes the early labels sharp enough to bootstrap the selector.
  const bool curriculum = stage_index_ < config_.curriculum_stages;
  std::int32_t min_pins = config_.min_pins;
  std::int32_t max_pins = config_.max_pins;
  if (curriculum) {
    const std::int32_t span = std::max<std::int32_t>(1, config_.curriculum_stages);
    const std::int32_t step =
        (config_.max_pins - config_.min_pins) * stage_index_ / span;
    min_pins = max_pins = std::min(config_.max_pins, config_.min_pins + step);
  }
  mcts::CombMctsConfig mcts_config = config_.mcts;
  mcts_config.use_critic = config_.mcts.use_critic && !curriculum;

  // ---- sample generation (parallel across layouts) ----
  util::Timer gen_timer;
  struct RawSample {
    hanan::HananGrid grid;
    mcts::CombMctsResult mcts;
  };

  std::vector<std::pair<gen::RandomGridSpec, std::uint64_t>> jobs;
  for (const LayoutSizeSpec& size : config_.sizes) {
    const gen::RandomGridSpec spec =
        training_spec(size, config_.obstacle_density, min_pins, max_pins);
    for (std::int32_t i = 0; i < config_.layouts_per_size; ++i) {
      jobs.emplace_back(spec, rng_.next());
    }
  }

  // One pool serves both phases: sample generation fans out over layouts,
  // the fit phase over per-worker replicas.  With tree-parallel search
  // (mcts.search_workers > 1) each episode already spawns its own worker
  // threads, so the layout-level fan-out shrinks to keep the total thread
  // footprint near config_.threads.
  const std::size_t search_workers =
      mcts_config.search_workers == 0
          ? util::ThreadPool::resolve_thread_count(0)
          : std::size_t(mcts_config.search_workers);
  const std::size_t gen_workers = std::min(
      std::max<std::size_t>(
          1, util::ThreadPool::resolve_thread_count(config_.threads) /
                 std::max<std::size_t>(1, search_workers)),
      jobs.empty() ? std::size_t(1) : jobs.size());
  const std::size_t fit_workers = util::ThreadPool::resolve_thread_count(
      config_.fit_workers > 0 ? config_.fit_workers : config_.threads);
  util::ThreadPool pool(std::max(gen_workers, fit_workers));

  // Each job checks out a private selector clone (module forward caches
  // are not thread safe); clones are pooled and reused across jobs.
  std::vector<std::unique_ptr<SteinerSelector>> clone_pool;
  std::mutex clone_mutex;
  auto checkout_clone = [&]() -> std::unique_ptr<SteinerSelector> {
    {
      std::lock_guard<std::mutex> lock(clone_mutex);
      if (!clone_pool.empty()) {
        auto clone = std::move(clone_pool.back());
        clone_pool.pop_back();
        return clone;
      }
    }
    auto clone = std::make_unique<SteinerSelector>(selector_.config());
    clone->copy_weights_from(selector_);
    return clone;
  };
  auto checkin_clone = [&](std::unique_ptr<SteinerSelector> clone) {
    std::lock_guard<std::mutex> lock(clone_mutex);
    clone_pool.push_back(std::move(clone));
  };

  // Results are written by job index, never appended: append order would
  // depend on thread completion and make fixed-seed runs diverge.
  std::vector<RawSample> raw(jobs.size());
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    auto clone = checkout_clone();
    util::Rng job_rng(jobs[i].second);
    hanan::HananGrid grid = gen::random_grid(jobs[i].first, job_rng);
    mcts::CombMctsConfig cfg = mcts_config;
    cfg.iterations_per_move =
        mcts::scaled_iterations(mcts_config.iterations_per_move, grid);
    mcts::CombMctsResult result = mcts::CombMcts(*clone, cfg).run(grid);
    raw[i] = RawSample{std::move(grid), std::move(result)};
    checkin_clone(std::move(clone));
  });
  report.sample_gen_seconds = gen_timer.seconds();
  report.raw_samples = std::int32_t(raw.size());
  report.seconds_per_sample =
      raw.empty() ? 0.0 : report.sample_gen_seconds / double(raw.size());

  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  for (const RawSample& r : raw) {
    if (r.mcts.initial_cost > 0.0) {
      ratio_sum += r.mcts.best_cost / r.mcts.initial_cost;
      ++ratio_count;
    }
  }
  report.mean_mcts_st_mst = ratio_count == 0 ? 0.0 : ratio_sum / double(ratio_count);

  // ---- persist episodes (DESIGN.md §18) ----
  // Serial single-writer appends in job order (deterministic file bytes
  // for a fixed seed).  Each record routes pins + the search's best
  // combination once more — one exact construction against the thousands
  // the search already ran — so the stored tree matches what replay and
  // warm-start consumers expect.
  if (experience_) {
    route::RouterScratch scratch;
    for (const RawSample& r : raw) {
      route::OarmstRouter router(r.grid);
      route::OarmstResult routed =
          router.build(r.grid.pins(), r.mcts.best_selected, &scratch);
      if (!routed.connected) continue;
      experience_->put(experience::build_record(r.grid, routed, r.mcts.label,
                                                r.mcts.best_selected));
      ++report.experience_appends;
    }
    experience_->flush();
  }

  // ---- augmentation + dataset ----
  Dataset dataset;
  const auto augmentations = all_augmentations();
  const std::int32_t n_aug =
      config_.augment ? std::min<std::int32_t>(config_.augment_count, 16) : 1;
  for (const RawSample& r : raw) {
    for (std::int32_t a = 0; a < n_aug; ++a) {
      const AugmentSpec& spec = augmentations[std::size_t(a)];
      TrainingSample sample;
      sample.grid = transform_grid(r.grid, spec);
      sample.label = transform_label(r.grid, r.mcts.label, spec);
      sample.mask = transform_label(r.grid, r.mcts.label_mask, spec);
      dataset.add(std::move(sample));
    }
  }
  report.train_samples = std::int32_t(dataset.size());

  // ---- fit (data parallel across replicas) ----
  util::Timer fit_timer;
  FitOptions fit;
  fit.epochs = config_.epochs_per_stage;
  fit.batch_size = std::size_t(config_.batch_size);
  fit.grad_clip = config_.grad_clip;
  fit.workers = std::int32_t(fit_workers);
  fit.pool = &pool;
  report.mean_loss = fit_dataset(selector_, optimizer_, dataset, fit, rng_);
  report.train_seconds = fit_timer.seconds();

  TrainObs& tobs = train_obs();
  tobs.stages.inc();
  tobs.samples.add(std::uint64_t(report.raw_samples));
  tobs.stage_loss.set(report.mean_loss);
  tobs.samples_per_second.set(report.sample_gen_seconds > 0.0
                                  ? double(report.raw_samples) /
                                        report.sample_gen_seconds
                                  : 0.0);

  util::log_info("stage ", stage_index_, ": ", report.raw_samples, " layouts -> ",
                 report.train_samples, " samples, loss ", report.mean_loss,
                 ", mcts ST/MST ", report.mean_mcts_st_mst);
  ++stage_index_;
  return report;
}

std::vector<StageReport> CombTrainer::train() {
  std::vector<StageReport> reports;
  while (stage_index_ < config_.stages) {
    reports.push_back(run_stage());
    if (!config_.checkpoint_path.empty() &&
        !save_checkpoint(config_.checkpoint_path)) {
      util::log_error("failed to write checkpoint ", config_.checkpoint_path);
    }
  }
  if (config_.calibrate_int8) {
    // Post-training: calibrate the int8 engine on fresh layouts from the
    // training distribution, then gate it against fp32 (falls back on
    // failure — the trained artifact never serves a degraded quantization).
    std::vector<hanan::HananGrid> grids;
    for (const LayoutSizeSpec& size : config_.sizes) {
      const gen::RandomGridSpec spec = training_spec(
          size, config_.obstacle_density, config_.min_pins, config_.max_pins);
      for (std::int32_t i = 0; i < config_.int8_calibration_layouts; ++i) {
        grids.push_back(gen::random_grid(spec, rng_));
      }
    }
    std::vector<const hanan::HananGrid*> ptrs;
    ptrs.reserve(grids.size());
    for (const hanan::HananGrid& g : grids) ptrs.push_back(&g);
    selector_.calibrate_int8(ptrs);
    const Int8GateReport gate = evaluate_int8_gate(selector_, grids);
    util::log_info("int8 gate: agreement ", gate.mean_agreement,
                   ", cost ratio ", gate.mean_cost_ratio,
                   gate.passed        ? " (passed)"
                   : gate.fell_back   ? " (failed; serving fp32)"
                                      : " (failed)");
  }
  return reports;
}

bool CombTrainer::save_checkpoint(const std::string& path) {
  obs::ScopedTimer timer(train_obs().checkpoint_seconds);
  return nn::save_training_checkpoint(path, selector_.net(), optimizer_,
                                      rng_.state(), stage_index_);
}

bool CombTrainer::load_checkpoint(const std::string& path) {
  util::RngState rng_state;
  std::int32_t stage = 0;
  if (!nn::load_training_checkpoint(path, selector_.net(), optimizer_,
                                    &rng_state, &stage)) {
    return false;
  }
  rng_.set_state(rng_state);
  stage_index_ = stage;
  return true;
}

bool CombTrainer::try_resume() {
  return !config_.checkpoint_path.empty() &&
         load_checkpoint(config_.checkpoint_path);
}

}  // namespace oar::rl
