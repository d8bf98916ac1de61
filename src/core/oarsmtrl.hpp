#pragma once

// Umbrella header: the public API of the oarsmtrl library.
//
// Quick tour (see examples/quickstart.cpp):
//   geom::Layout            — physical problem description
//   hanan::HananGrid        — 3D Hanan grid graph (from_layout or direct)
//   route::OarmstRouter     — OARMST construction over pins + Steiner points
//   steiner::{Lin08,Liu14,Lin18}Router — algorithmic baselines
//   rl::SteinerSelector     — the 3D-U-Net Steiner-point selector
//   rl::CombTrainer         — combinatorial-MCTS training pipeline
//   core::Router            — unified facade over every entry point
//                             (route(Layout, Net) -> RouteResult + metrics)
//   chip::ChipRouter        — full-chip multi-net negotiated rip-up &
//                             reroute (route(grid, Netlist) on the facade,
//                             see examples/chip_demo.cpp)
//   chip::Netlist           — named multi-pin nets + text file format
//   core::RlRouter          — the trained RL ML-OARSMT router
//   core::pretrained_*      — bundled tiny checkpoint helpers
//   serve::RouterService    — EDF-queued, per-thread-replica serving layer
//                             with a symmetry-aware result cache
//                             (see examples/serve_demo.cpp)
//   obs::MetricsRegistry    — process-global counters/gauges/histograms,
//                             Prometheus + JSON exporters (obs/export.hpp)

#include "chip/chip_router.hpp"
#include "chip/congestion.hpp"
#include "chip/netlist.hpp"
#include "chip/ordering.hpp"
#include "core/pretrained.hpp"
#include "core/registry.hpp"
#include "core/rl_router.hpp"
#include "core/router.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "gen/grid_io.hpp"
#include "gen/public_benchmarks.hpp"
#include "gen/svg.hpp"
#include "experience/canonical.hpp"
#include "experience/store.hpp"
#include "gen/random_layout.hpp"
#include "gen/random_netlist.hpp"
#include "geom/layout.hpp"
#include "hanan/features.hpp"
#include "hanan/hanan_grid.hpp"
#include "mcts/comb_mcts.hpp"
#include "mcts/seq_mcts.hpp"
#include "rl/evaluate.hpp"
#include "rl/ppo.hpp"
#include "rl/selector.hpp"
#include "rl/seq_trainer.hpp"
#include "rl/trainer.hpp"
#include "route/oarmst.hpp"
#include "serve/service.hpp"
#include "steiner/lin08.hpp"
#include "steiner/oracle.hpp"
#include "steiner/lin18.hpp"
#include "steiner/liu14.hpp"
