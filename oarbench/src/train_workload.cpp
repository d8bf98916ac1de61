// train: a closed loop of Adam steps over a fixed labelled dataset.  Set-up
// labels seeded 12x12x3 and 16x16x4 layouts with combinatorial MCTS (K=1,
// deterministic) and expands them 16-fold; each op is one same-size batch
// of 16 through rl::ParallelFitter::accumulate_batch at four fit workers,
// then clip and an nn::Adam step.  The selector starts fresh from
// core::pretrained_selector_config().

#include <algorithm>
#include <cmath>

#include "core/pretrained.hpp"
#include "gen/random_layout.hpp"
#include "mcts/comb_mcts.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "rl/augment.hpp"
#include "rl/dataset.hpp"
#include "rl/trainer.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace oarbench {
namespace {

using namespace oar;

constexpr int kFitWorkers = 4;
constexpr std::size_t kBatch = 16;
constexpr double kLr = 1e-3;
constexpr double kGradClip = 5.0;
// Every run completes this many epochs; quality is the last one's mean BCE.
constexpr int kQualityEpochs = 2;
constexpr int kLabelIterations = 48;

/// `n` 12x12x3 and 3n 16x16x4 layouts from one stream, pin counts cycling
/// through 3..6 in each size.  The 1:3 mix keeps both latency percentiles
/// inside the 16x16x4 batch mode instead of on the edge between the modes.
std::vector<hanan::HananGrid> make_layouts(std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<hanan::HananGrid> out;
  for (const auto& [size, count] : {std::pair{rl::LayoutSizeSpec{12, 12, 3}, n},
                                    std::pair{rl::LayoutSizeSpec{16, 16, 4}, 3 * n}}) {
    for (int i = 0; i < count; ++i) {
      const int pins = 3 + i % 4;
      out.push_back(gen::random_grid(rl::training_spec(size, 0.10, pins, pins), rng));
    }
  }
  return out;
}

/// Labels each layout with a K=1 search on a fresh selector (one per
/// thread) and adds its 16 symmetry variants.
rl::Dataset label(const std::vector<hanan::HananGrid>& grids) {
  std::vector<mcts::CombMctsResult> labels(grids.size());
  parallel_indices(grids.size(), kThreadBudget, [&](std::size_t i) {
    thread_local std::unique_ptr<rl::SteinerSelector> selector;
    if (!selector) {
      selector = std::make_unique<rl::SteinerSelector>(core::pretrained_selector_config());
    }
    mcts::CombMctsConfig cfg;
    cfg.iterations_per_move = mcts::scaled_iterations(kLabelIterations, grids[i]);
    cfg.use_critic = false;  // exact state costs, as in curriculum stages
    labels[i] = mcts::CombMcts(*selector, cfg).run(grids[i]);
  });
  rl::Dataset dataset;
  const auto augs = rl::all_augmentations();
  for (std::size_t i = 0; i < grids.size(); ++i) {
    for (const rl::AugmentSpec& spec : augs) {
      rl::TrainingSample s;
      s.grid = rl::transform_grid(grids[i], spec);
      s.label = rl::transform_label(grids[i], labels[i].label, spec);
      s.mask = rl::transform_label(grids[i], labels[i].label_mask, spec);
      dataset.add(std::move(s));
    }
  }
  return dataset;
}

class TrainWorkload final : public Workload {
 public:
  TrainWorkload(std::uint64_t seed, Scale scale) : seed_(seed), scale_(scale) {}

  std::string name() const override { return "train"; }
  int threads() const override { return kFitWorkers; }
  // The caller waits in ThreadPool::parallel_for while the pool runs.
  int os_threads_allowed() const override { return kFitWorkers + 1; }

  void setup() override {
    const int n = scale_ == Scale::kFull ? 4 : 1;
    grids_ = make_layouts(stream_seed(seed_, 0x7a1a), n);
    dataset_ = label(grids_);
    selector_ = std::make_unique<rl::SteinerSelector>(core::pretrained_selector_config());
    digest_ = weights_digest(*selector_);
    optimizer_ = std::make_unique<nn::Adam>(selector_->net().parameters(), kLr);
    pool_ = std::make_unique<util::ThreadPool>(kFitWorkers);
    selector_->net().set_training(true);
    fitter_ = std::make_unique<rl::ParallelFitter>(*selector_, kFitWorkers, pool_.get());
    // Warm-up: one forward/backward batch from a disjoint stream, gradients
    // discarded, so the replicas and their buffers exist before timing.
    const rl::Dataset warm = label(make_layouts(stream_seed(seed_, 0x3a7a1), 1));
    std::vector<std::size_t> batch(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) batch[i] = i;
    optimizer_->zero_grad();
    fitter_->accumulate_batch(warm, batch);
    optimizer_->zero_grad();
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const auto& g : grids_) d.grid(g);
    return d.value();
  }

  PhaseOut run(double seconds, ThreadWatch& watch) override;
  void replay(std::vector<Metric>& out) override;

 private:
  std::uint64_t seed_;
  Scale scale_;
  std::uint64_t digest_ = 0;
  std::vector<hanan::HananGrid> grids_;
  rl::Dataset dataset_;
  std::unique_ptr<rl::SteinerSelector> selector_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<rl::ParallelFitter> fitter_;
  std::vector<std::vector<std::size_t>> first_batches_;
};

PhaseOut TrainWorkload::run(double seconds, ThreadWatch& watch) {
  PhaseOut out;
  util::Rng rng(stream_seed(seed_, 0xba7c4));
  std::vector<double> accumulate_ms, step_ms, epoch_loss;
  std::int64_t samples = 0;
  const bool count_bounded = scale_ != Scale::kFull;
  watch.start();
  const Clock::time_point t0 = Clock::now();
  std::uint64_t op = 0;
  for (int epoch = 0; epoch < kQualityEpochs || (!count_bounded && seconds_since(t0) < seconds);
       ++epoch) {
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (const std::vector<std::size_t>& batch : dataset_.epoch_batches(kBatch, rng)) {
      // Past the quality epochs the run stops at the first batch after the
      // time is up, so the op count follows speed one batch at a time.
      if (epoch >= kQualityEpochs && seconds_since(t0) >= seconds) break;
      if (first_batches_.size() < 4) first_batches_.push_back(batch);
      Span span("rl.train_step", op++);
      const Clock::time_point s = Clock::now();
      optimizer_->zero_grad();
      const double loss = fitter_->accumulate_batch(dataset_, batch);
      const Clock::time_point a = Clock::now();
      optimizer_->clip_grad_norm(kGradClip);
      optimizer_->step();
      fitter_->notify_weights_changed();
      const Clock::time_point e = Clock::now();
      accumulate_ms.push_back(std::chrono::duration<double, std::milli>(a - s).count());
      step_ms.push_back(std::chrono::duration<double, std::milli>(e - a).count());
      out.lat_ms.push_back(std::chrono::duration<double, std::milli>(e - s).count());
      ++out.attempted;
      const double mean_loss = loss / double(batch.size());
      if (std::isfinite(mean_loss)) {
        ++out.ok;
        samples += std::int64_t(batch.size());
      } else if (out.check_failures.size() < 8) {
        out.check_failures.push_back("train batch " + std::to_string(op) + ": loss not finite");
      }
      loss_sum += mean_loss;
      ++batches;
    }
    if (batches > 0) epoch_loss.push_back(loss_sum / double(batches));
  }
  watch.stop();
  out.phase_s = seconds_since(t0);
  out.work_units = double(samples);
  // The last epoch every run completes: independent of timing and of the
  // worker count, so it repeats exactly for a seed.
  out.quality = epoch_loss[kQualityEpochs - 1];
  if (!std::isfinite(out.quality)) out.check_failures.push_back("train: epoch loss not finite");

  out.layer = {
      {"rl.accumulate_ms", median(accumulate_ms), "ms"},
      {"rl.step_ms", median(step_ms), "ms"},
  };
  out.prov.str("loop", "closed, 1 caller");
  out.prov.integer("fit_workers", kFitWorkers);
  out.prov.integer("batch_size", std::int64_t(kBatch));
  out.prov.integer("dataset_samples", std::int64_t(dataset_.size()));
  out.prov.integer("epochs", std::int64_t(epoch_loss.size()));
  out.prov.integer("quality_epoch", kQualityEpochs);
  std::string losses = "[";
  for (std::size_t e = 0; e < epoch_loss.size(); ++e) {
    losses += (e ? ", " : "") + json_number(epoch_loss[e]);
  }
  out.prov.raw("epoch_bce", losses + "]");
  out.prov.str("initial_weights_fnv1a64", hex64(digest_));
  return out;
}

void TrainWorkload::replay(std::vector<Metric>& out) {
  // One sample's forward + BCE + backward on the training path, per size.
  const int reps = scale_ == Scale::kTiny ? 2 : 8;
  rl::SteinerSelector& sel = *selector_;
  for (const auto& [label, h] : {std::pair<std::string, int>{"12x12x3", 12},
                                 std::pair<std::string, int>{"16x16x4", 16}}) {
    std::size_t idx = 0;
    while (dataset_.sample(idx).grid.h_dim() != h) ++idx;
    const rl::TrainingSample& s = dataset_.sample(idx);
    const nn::Tensor input = rl::SteinerSelector::encode(s.grid);
    out.push_back({"nn.train_fwd_bwd_ms." + label, time_median_ms(reps, [&] {
                     Span span("nn.train_fwd_bwd", idx);
                     const nn::Tensor logits = sel.net().forward(input);
                     nn::Tensor target(logits.shape()), mask(logits.shape()), grad;
                     std::copy(s.label.begin(), s.label.end(), target.data());
                     std::copy(s.mask.begin(), s.mask.end(), mask.data());
                     nn::bce_with_logits(logits, target, grad, &mask);
                     sel.net().backward(grad);
                   }),
                   "ms"});
  }
  sel.net().zero_grad();

  // The run's first batches again at one fit worker (gradients discarded):
  // against rl.accumulate_ms this is the data-parallel scaling.
  rl::ParallelFitter serial(sel, 1, nullptr);
  std::vector<double> ms;
  for (const auto& batch : first_batches_) {
    optimizer_->zero_grad();
    Span span("rl.accumulate.w1", ms.size());
    const Clock::time_point s = Clock::now();
    serial.accumulate_batch(dataset_, batch);
    ms.push_back(seconds_since(s) * 1e3);
  }
  optimizer_->zero_grad();
  out.push_back({"rl.fit_ms.w1", median(ms), "ms"});
}

}  // namespace

std::unique_ptr<Workload> make_train(std::uint64_t seed, Scale scale) {
  return std::make_unique<TrainWorkload>(seed, scale);
}

}  // namespace oarbench
