// Every public *Config struct carries a validate() that throws
// std::invalid_argument naming the offending field ("Struct.field must ...
// (got ...)").  This suite walks every rejection path once and checks that
// (a) the defaults pass, and (b) each bad field is named in the message.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "chip/chip_router.hpp"
#include "core/router.hpp"
#include "experience/store.hpp"
#include "gen/random_netlist.hpp"
#include "mcts/comb_mcts.hpp"
#include "nn/quant/quantize.hpp"
#include "nn/unet3d.hpp"
#include "nn/value_net.hpp"
#include "route/oarmst.hpp"
#include "rl/ppo.hpp"
#include "rl/selector.hpp"
#include "rl/trainer.hpp"
#include "serve/service.hpp"
#include "steiner/lin18.hpp"
#include "steiner/liu14.hpp"
#include "steiner/oracle.hpp"

namespace oar {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mutates a default-constructed config, expects validate() to throw an
/// invalid_argument whose message names `Struct.field`.
template <typename Config, typename Mutator>
void expect_rejects(Mutator&& mutate, const std::string& field_path) {
  Config cfg;
  mutate(cfg);
  try {
    cfg.validate();
    ADD_FAILURE() << "expected " << field_path << " to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field_path), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(ConfigValidate, DefaultsAllPass) {
  EXPECT_NO_THROW(steiner::Liu14Config{}.validate());
  EXPECT_NO_THROW(steiner::Lin18Config{}.validate());
  EXPECT_NO_THROW(steiner::OracleConfig{}.validate());
  EXPECT_NO_THROW(nn::UNet3dConfig{}.validate());
  EXPECT_NO_THROW(nn::ValueNetConfig{}.validate());
  EXPECT_NO_THROW(nn::InferConfig{}.validate());
  EXPECT_NO_THROW(route::OarmstConfig{}.validate());
  EXPECT_NO_THROW(serve::RouterServiceConfig{}.validate());
  EXPECT_NO_THROW(mcts::CombMctsConfig{}.validate());
  EXPECT_NO_THROW(rl::TrainConfig{}.validate());
  EXPECT_NO_THROW(rl::FitOptions{}.validate());
  EXPECT_NO_THROW(rl::SelectorConfig{}.validate());
  EXPECT_NO_THROW(rl::PpoConfig{}.validate());
  EXPECT_NO_THROW(core::RlRouterConfig{}.validate());
  EXPECT_NO_THROW(core::RouterOptions{}.validate());
  EXPECT_NO_THROW(chip::ChipConfig{}.validate());
  EXPECT_NO_THROW(gen::RandomNetlistSpec{}.validate());
}

TEST(ConfigValidate, ChipConfig) {
  using C = chip::ChipConfig;
  expect_rejects<C>([](C& c) { c.max_iterations = 0; },
                    "ChipConfig.max_iterations");
  expect_rejects<C>([](C& c) { c.edge_capacity = 0; },
                    "ChipConfig.edge_capacity");
  expect_rejects<C>([](C& c) { c.present_factor = -0.5; },
                    "ChipConfig.present_factor");
  expect_rejects<C>([](C& c) { c.present_growth = 0.9; },
                    "ChipConfig.present_growth");
  expect_rejects<C>([](C& c) { c.history_increment = -1.0; },
                    "ChipConfig.history_increment");
}

TEST(ConfigValidate, RandomNetlistSpec) {
  using C = gen::RandomNetlistSpec;
  expect_rejects<C>([](C& c) { c.min_pins = 1; },
                    "RandomNetlistSpec.min_pins");
  expect_rejects<C>(
      [](C& c) {
        c.min_pins = 4;
        c.max_pins = 3;
      },
      "RandomNetlistSpec.max_pins");
  expect_rejects<C>([](C& c) { c.max_attempts_per_net = 0; },
                    "RandomNetlistSpec.max_attempts_per_net");
}

TEST(ConfigValidate, Liu14) {
  using C = steiner::Liu14Config;
  expect_rejects<C>([](C& c) { c.max_evaluations = 0; },
                    "Liu14Config.max_evaluations");
  expect_rejects<C>([](C& c) { c.neighbors_per_terminal = 0; },
                    "Liu14Config.neighbors_per_terminal");
}

TEST(ConfigValidate, Lin18) {
  using C = steiner::Lin18Config;
  expect_rejects<C>([](C& c) { c.max_evaluations_per_round = 0; },
                    "Lin18Config.max_evaluations_per_round");
  expect_rejects<C>([](C& c) { c.neighbors_per_terminal = -1; },
                    "Lin18Config.neighbors_per_terminal");
  expect_rejects<C>([](C& c) { c.max_rounds = 0; }, "Lin18Config.max_rounds");
  expect_rejects<C>([](C& c) { c.min_gain = -1e-3; }, "Lin18Config.min_gain");
}

TEST(ConfigValidate, Oracle) {
  using C = steiner::OracleConfig;
  expect_rejects<C>([](C& c) { c.max_steiner = -1; },
                    "OracleConfig.max_steiner");
  expect_rejects<C>([](C& c) { c.max_evaluations = -1; },
                    "OracleConfig.max_evaluations");
}

TEST(ConfigValidate, UNet3d) {
  using C = nn::UNet3dConfig;
  expect_rejects<C>([](C& c) { c.in_channels = 0; },
                    "UNet3dConfig.in_channels");
  expect_rejects<C>([](C& c) { c.base_channels = 0; },
                    "UNet3dConfig.base_channels");
  expect_rejects<C>([](C& c) { c.depth = 0; }, "UNet3dConfig.depth");
  expect_rejects<C>([](C& c) { c.head_bias_init = kNan; },
                    "UNet3dConfig.head_bias_init");
  // SelectorConfig delegates to the nested UNet3dConfig.
  rl::SelectorConfig sel;
  sel.unet.depth = 0;
  EXPECT_THROW(sel.validate(), std::invalid_argument);
}

TEST(ConfigValidate, ValueNet) {
  using C = nn::ValueNetConfig;
  expect_rejects<C>([](C& c) { c.in_channels = 0; },
                    "ValueNetConfig.in_channels");
  expect_rejects<C>([](C& c) { c.channels = 0; }, "ValueNetConfig.channels");
  expect_rejects<C>([](C& c) { c.hidden = 0; }, "ValueNetConfig.hidden");
}

TEST(ConfigValidate, Oarmst) {
  using C = route::OarmstConfig;
  expect_rejects<C>([](C& c) { c.max_rebuild_passes = 0; },
                    "OarmstConfig.max_rebuild_passes");
}

TEST(ConfigValidate, RouterService) {
  using C = serve::RouterServiceConfig;
  expect_rejects<C>([](C& c) { c.experience_read_only = true; },
                    "RouterServiceConfig.experience_read_only");
  // The nested SLO policy is validated through the service config.
  expect_rejects<C>([](C& c) { c.slo.default_deadline_ms = -1.0; },
                    "SloConfig.default_deadline_ms");
  expect_rejects<C>([](C& c) { c.slo.min_slack_ms = kNan; },
                    "SloConfig.min_slack_ms");
}

TEST(ConfigValidate, SloConfig) {
  using C = serve::SloConfig;
  EXPECT_NO_THROW(C{}.validate());
  expect_rejects<C>([](C& c) { c.default_deadline_ms = kNan; },
                    "SloConfig.default_deadline_ms");
  expect_rejects<C>([](C& c) { c.default_deadline_ms = -5.0; },
                    "SloConfig.default_deadline_ms");
  expect_rejects<C>([](C& c) { c.min_slack_ms = -1.0; },
                    "SloConfig.min_slack_ms");
  expect_rejects<C>([](C& c) { c.min_slack_ms = kInf; },
                    "SloConfig.min_slack_ms");
}

TEST(ConfigValidate, CombMcts) {
  using C = mcts::CombMctsConfig;
  expect_rejects<C>([](C& c) { c.iterations_per_move = 0; },
                    "CombMctsConfig.iterations_per_move");
  expect_rejects<C>([](C& c) { c.c_puct = -0.5; }, "CombMctsConfig.c_puct");
  expect_rejects<C>([](C& c) { c.flat_cost_patience = -1; },
                    "CombMctsConfig.flat_cost_patience");
  expect_rejects<C>([](C& c) { c.flat_eps = -1e-6; },
                    "CombMctsConfig.flat_eps");
  expect_rejects<C>([](C& c) { c.max_children = -1; },
                    "CombMctsConfig.max_children");
  expect_rejects<C>([](C& c) { c.prior_uniform_mix = 1.5; },
                    "CombMctsConfig.prior_uniform_mix");
  expect_rejects<C>([](C& c) { c.search_workers = -1; },
                    "CombMctsConfig.search_workers");
  expect_rejects<C>([](C& c) { c.warm_start_weight = 1.5; },
                    "CombMctsConfig.warm_start_weight");
  expect_rejects<C>([](C& c) { c.warm_start_weight = -0.1; },
                    "CombMctsConfig.warm_start_weight");
  expect_rejects<C>([](C& c) { c.warm_start_visits = -1; },
                    "CombMctsConfig.warm_start_visits");
}

TEST(ConfigValidate, ExperienceStore) {
  using C = experience::StoreConfig;
  EXPECT_NO_THROW(C{}.validate());
  expect_rejects<C>(
      [](C& c) {
        c.read_only = true;
        c.path.clear();
      },
      "StoreConfig.read_only");
}

TEST(ConfigValidate, Train) {
  using C = rl::TrainConfig;
  expect_rejects<C>([](C& c) { c.sizes.clear(); }, "TrainConfig.sizes");
  expect_rejects<C>([](C& c) { c.sizes = {{1, 4, 1}}; }, "TrainConfig.sizes");
  expect_rejects<C>([](C& c) { c.layouts_per_size = 0; },
                    "TrainConfig.layouts_per_size");
  expect_rejects<C>([](C& c) { c.stages = 0; }, "TrainConfig.stages");
  expect_rejects<C>([](C& c) { c.epochs_per_stage = 0; },
                    "TrainConfig.epochs_per_stage");
  expect_rejects<C>([](C& c) { c.batch_size = 0; }, "TrainConfig.batch_size");
  expect_rejects<C>([](C& c) { c.lr = 0.0; }, "TrainConfig.lr");
  expect_rejects<C>([](C& c) { c.lr = kInf; }, "TrainConfig.lr");
  expect_rejects<C>([](C& c) { c.grad_clip = 0.0; }, "TrainConfig.grad_clip");
  expect_rejects<C>([](C& c) { c.augment_count = 0; },
                    "TrainConfig.augment_count");
  expect_rejects<C>([](C& c) { c.augment_count = 17; },
                    "TrainConfig.augment_count");
  expect_rejects<C>([](C& c) { c.curriculum_stages = -1; },
                    "TrainConfig.curriculum_stages");
  expect_rejects<C>([](C& c) { c.min_pins = 1; }, "TrainConfig.min_pins");
  expect_rejects<C>([](C& c) { c.max_pins = c.min_pins - 1; },
                    "TrainConfig.max_pins");
  expect_rejects<C>([](C& c) { c.obstacle_density = 1.0; },
                    "TrainConfig.obstacle_density");
  expect_rejects<C>([](C& c) { c.threads = -1; }, "TrainConfig.threads");
  expect_rejects<C>([](C& c) { c.fit_workers = -2; },
                    "TrainConfig.fit_workers");
  expect_rejects<C>([](C& c) { c.int8_calibration_layouts = 0; },
                    "TrainConfig.int8_calibration_layouts");
  // Nested MCTS config is validated too.
  expect_rejects<C>([](C& c) { c.mcts.iterations_per_move = 0; },
                    "CombMctsConfig.iterations_per_move");
}

TEST(ConfigValidate, InferConfig) {
  using C = nn::InferConfig;
  expect_rejects<C>([](C& c) { c.int8_min_agreement = -0.1; },
                    "InferConfig.int8_min_agreement");
  expect_rejects<C>([](C& c) { c.int8_min_agreement = 1.5; },
                    "InferConfig.int8_min_agreement");
  expect_rejects<C>([](C& c) { c.int8_max_cost_ratio = 0.9; },
                    "InferConfig.int8_max_cost_ratio");
  expect_rejects<C>([](C& c) { c.precision = C::Precision(7); },
                    "InferConfig.precision");
  // SelectorConfig validates the nested InferConfig too.
  rl::SelectorConfig sel;
  sel.infer.int8_max_cost_ratio = 0.5;
  EXPECT_THROW(sel.validate(), std::invalid_argument);
}

TEST(ConfigValidate, FitOptions) {
  using C = rl::FitOptions;
  expect_rejects<C>([](C& c) { c.epochs = 0; }, "FitOptions.epochs");
  expect_rejects<C>([](C& c) { c.batch_size = 0; }, "FitOptions.batch_size");
  expect_rejects<C>([](C& c) { c.grad_clip = -1.0; }, "FitOptions.grad_clip");
  expect_rejects<C>([](C& c) { c.workers = -1; }, "FitOptions.workers");
}

TEST(ConfigValidate, Ppo) {
  using C = rl::PpoConfig;
  expect_rejects<C>([](C& c) { c.episodes_per_iteration = 0; },
                    "PpoConfig.episodes_per_iteration");
  expect_rejects<C>([](C& c) { c.update_epochs = 0; },
                    "PpoConfig.update_epochs");
  expect_rejects<C>([](C& c) { c.clip_epsilon = 0.0; },
                    "PpoConfig.clip_epsilon");
  expect_rejects<C>([](C& c) { c.lr_policy = kNan; }, "PpoConfig.lr_policy");
  expect_rejects<C>([](C& c) { c.lr_value = -1.0; }, "PpoConfig.lr_value");
  expect_rejects<C>([](C& c) { c.gamma = 0.0; }, "PpoConfig.gamma");
  expect_rejects<C>([](C& c) { c.gamma = 1.5; }, "PpoConfig.gamma");
  expect_rejects<C>([](C& c) { c.gae_lambda = -0.1; },
                    "PpoConfig.gae_lambda");
  expect_rejects<C>([](C& c) { c.entropy_coef = -1.0; },
                    "PpoConfig.entropy_coef");
  expect_rejects<C>([](C& c) { c.grad_clip = 0.0; }, "PpoConfig.grad_clip");
  expect_rejects<C>([](C& c) { c.min_pins = 0; }, "PpoConfig.min_pins");
  expect_rejects<C>([](C& c) { c.max_pins = 1; }, "PpoConfig.max_pins");
  expect_rejects<C>([](C& c) { c.obstacle_density = 1.0; },
                    "PpoConfig.obstacle_density");
}

TEST(ConfigValidate, RouterOptions) {
  using C = core::RouterOptions;
  expect_rejects<C>([](C& c) { c.engine = "no-such-engine"; },
                    "RouterOptions.engine");
  expect_rejects<C>([](C& c) { c.engine = ""; }, "RouterOptions.engine");
  expect_rejects<C>(
      [](C& c) {
        c.engine = "liu14";
        c.use_service = true;
      },
      "RouterOptions.use_service");
  expect_rejects<C>([](C& c) { c.experience_read_only = true; },
                    "RouterOptions.experience_read_only");
  // The nested service config is validated through the facade too.
  expect_rejects<C>([](C& c) { c.service.experience_read_only = true; },
                    "RouterServiceConfig.experience_read_only");
  expect_rejects<C>([](C& c) { c.chip.edge_capacity = 0; },
                    "ChipConfig.edge_capacity");
  // The nested search config ("rl-mcts" engine knobs) as well.
  expect_rejects<C>([](C& c) { c.mcts.search_workers = -2; },
                    "CombMctsConfig.search_workers");
  // The anytime deadline knob (DESIGN.md Â§16).
  expect_rejects<C>([](C& c) { c.deadline_ms = -10.0; },
                    "RouterOptions.deadline_ms");
  expect_rejects<C>([](C& c) { c.deadline_ms = kNan; },
                    "RouterOptions.deadline_ms");
  expect_rejects<C>([](C& c) { c.service.slo.default_deadline_ms = kInf; },
                    "SloConfig.default_deadline_ms");
}

TEST(ConfigValidate, ConstructorsEnforceValidation) {
  steiner::Liu14Config liu;
  liu.max_evaluations = 0;
  EXPECT_THROW(steiner::Liu14Router{liu}, std::invalid_argument);

  nn::UNet3dConfig unet;
  unet.depth = 0;
  EXPECT_THROW(nn::UNet3d{unet}, std::invalid_argument);

  mcts::CombMctsConfig mcts_cfg;
  mcts_cfg.prior_uniform_mix = -0.25;
  rl::SteinerSelector selector{[] {
    rl::SelectorConfig c;
    c.unet.base_channels = 2;
    c.unet.depth = 1;
    return c;
  }()};
  EXPECT_THROW(mcts::CombMcts(selector, mcts_cfg), std::invalid_argument);

  mcts::CombMctsConfig par_cfg;
  par_cfg.search_workers = -1;
  EXPECT_THROW(mcts::CombMcts(selector, par_cfg), std::invalid_argument);

  core::RouterOptions opt;
  opt.engine = "no-such-engine";
  EXPECT_THROW(core::Router{opt}, std::invalid_argument);
}

}  // namespace
}  // namespace oar
