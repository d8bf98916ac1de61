#pragma once

// Combinatorial Monte-Carlo tree search (paper Sec. 3.4-3.5) — the core
// contribution: an MCTS over *combinations* of Steiner points.
//
// Compared to conventional MCTS:
//  * actions are ordered by the lexicographic (h, v, m) selection priority,
//    so every tree node corresponds to a unique Steiner-point combination
//    (no permutation duplicates) and the search space is compacted;
//  * the training label is collected once per search tree — the label of
//    vertex v is L_fsp(v) = n_sel(v) / n_opp(v) (eq. (3)) accumulated over
//    every UCT selection step of the whole search, teaching the selector
//    the probability of v belonging to the *final* combination.
//
// Terminal states (Sec. 3.4): (1) n-2 Steiner points placed, (2) the last
// action increased the routing cost, (3) cost flat for three consecutive
// actions.
//
// Tree parallelism (DESIGN.md §15): `search_workers` workers descend ONE
// shared tree.
//
//   * Virtual loss: each descent stamps an integer virtual loss on every
//     edge it traverses (one pessimistic phantom visit: effective visits
//     n+vl, effective value sum W-vl) and reverts it during backup, so
//     concurrent workers spread over different subtrees.  The counter is
//     kept apart from visits/value, so with one worker (virtual losses
//     never observed non-zero) every selection computes the plain UCT
//     expressions and the search is deterministic.
//   * Each worker expands leaves through its own ActorCritic::fsp_into.
//     Worker 0 is the calling thread on the caller's selector; workers
//     1..K-1 run on selector replicas (same weights, precision and int8
//     pack, private forward state) built once per CombMcts object.  K = 1
//     therefore starts no thread and builds no replica.
//   * Tree mutations (selection bookkeeping, expansion commit, backup) are
//     serialized by one tree mutex; evaluations — nearly all of the wall
//     time — run outside it.  A worker reaching a leaf another worker is
//     already evaluating waits for that result instead of duplicating it
//     (stats.eval_waits).
//
// After every root move the search self-checks the virtual-loss invariant
// (every edge back to zero, applied == reverted) and throws on violation.
// At K > 1 the iteration interleaving depends on thread timing, so labels
// are distribution-equivalent to the one-worker labels, not bitwise equal.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "mcts/actor_critic.hpp"

namespace oar::experience {
class Store;
}

namespace oar::mcts {

/// Wall-clock basis for anytime search deadlines (matches serve::Clock).
using SearchClock = std::chrono::steady_clock;
using SearchDeadline = std::optional<SearchClock::time_point>;

struct CombMctsConfig {
  /// UCT iterations per executed root move (the paper's alpha; 2000 for a
  /// 16x16x4 layout, scaled proportionally to layout size by callers —
  /// see scaled_iterations()).
  std::int32_t iterations_per_move = 128;
  /// Exploration constant multiplying U(s, a) (eq. (2)).
  double c_puct = 1.0;
  /// false: curriculum mode — the value of a leaf is computed from the
  /// exact routing cost of its own state instead of the critic completion
  /// (paper Sec. 3.6, first four stages).
  bool use_critic = true;
  /// Terminal rule (2): stop below a node whose action increased the cost.
  bool stop_on_cost_increase = true;
  /// Terminal rule (3): consecutive flat-cost actions allowed.
  std::int32_t flat_cost_patience = 3;
  /// Relative tolerance for "cost stayed the same".
  double flat_eps = 1e-9;
  /// Keep only the top-k prior children at expansion (0 = all valid).
  /// Performance knob for larger training layouts.
  std::int32_t max_children = 0;
  /// Exploration floor: expansion priors are mixed with a uniform
  /// distribution, P' = (1-mix)*P + mix/K (the AlphaGo root-noise idea in
  /// deterministic form).  Without it, eq. (1)'s running product assigns
  /// practically zero prior to high-priority-index vertices under an
  /// untrained selector and UCT never explores them.
  double prior_uniform_mix = 0.15;

  // --- tree parallelism (DESIGN.md §15) ---
  /// Concurrent tree workers sharing one search tree under virtual loss.
  /// 1 = one deterministic worker on the calling thread; 0 = hardware
  /// concurrency.
  std::int32_t search_workers = 1;

  // --- persistent-experience warm start (DESIGN.md §18) ---
  /// Seed the root from the experience store (exact or pin-subset/superset
  /// matches on the same canonical obstacle field).  Off by default; with
  /// warm_start == false — or no store attached, or no applicable
  /// experience — the search is bitwise identical to the cold search.
  bool warm_start = false;
  /// Blend weight λ of the experience prior into the root expansion
  /// priors: P' = (1-λ)·P_search + λ·P_exp.
  double warm_start_weight = 0.25;
  /// Synthetic visits seeded on the recorded first action of an exact
  /// match (Q initialized to the recorded combination's re-evaluated
  /// value).  0 disables visit seeding, leaving only the prior blend.
  std::int32_t warm_start_visits = 8;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Paper: alpha = 2000 for 16x16x4, proportional to size for larger.
std::int32_t scaled_iterations(std::int32_t base_iterations,
                               const hanan::HananGrid& grid);

struct CombMctsStats {
  std::int64_t iterations = 0;
  std::int64_t expansions = 0;
  std::int64_t simulations = 0;   // critic/exact evaluations of leaves
  std::int64_t nodes = 0;
  std::int64_t executed_moves = 0;
  double seconds = 0.0;
  // Virtual-loss accounting.  The applied/reverted pair must match after
  // every episode — the invariant run() also self-checks between root
  // moves.
  std::int64_t vloss_applied = 0;
  std::int64_t vloss_reverted = 0;
  /// Descents that reached a leaf another worker was already evaluating
  /// and waited for its result instead of duplicating the evaluation.
  std::int64_t eval_waits = 0;
  /// True when an anytime run stopped because its deadline expired (the
  /// result is still the valid best-so-far state — see
  /// CombMctsResult::best_selected).  Always false for unbounded runs.
  bool deadline_hit = false;
  /// Experience candidates blended into the root (0 == cold start).
  std::int32_t warm_matches = 0;
  /// True when warm-start data actually touched this search.
  bool warm_started = false;
};

struct CombMctsResult {
  /// L_fsp per vertex in priority order (size = grid.num_vertices()).
  std::vector<float> label;
  /// Mask: 1 where the vertex had at least one selection opportunity or is
  /// a valid empty location; 0 on pins/obstacles.  Used to weight the BCE.
  std::vector<float> label_mask;
  /// Steiner points actually executed by the search.
  std::vector<Vertex> selected;
  /// The combination achieving `best_cost` — the anytime answer.  Every
  /// entry was exact-evaluated during the search, so routing pins +
  /// best_selected through OarmstRouter always yields a valid tree (the
  /// critic-completion guarantee: the search never exposes a state it has
  /// not routed).  Equals `selected` when the executed path ends best.
  std::vector<Vertex> best_selected;
  double initial_cost = 0.0;  // rc_{s0}: cost with no Steiner points
  double final_cost = 0.0;    // exact cost of the executed terminal state
  double best_cost = 0.0;     // best exact cost over all evaluated states
  CombMctsStats stats;
};

class CombMcts {
 public:
  /// `experience` (optional, must outlive the search) feeds the
  /// warm-start lookup; it is only consulted when config.warm_start is on.
  /// Builds the search_workers - 1 selector replicas from `selector` as it
  /// is now: later weight or precision changes reach worker 0 only.
  CombMcts(rl::SteinerSelector& selector, CombMctsConfig config = {},
           const experience::Store* experience = nullptr);
  ~CombMcts();

  /// Builds one MC search tree on `grid` and returns the training label
  /// plus the executed combination (one sample per layout, Sec. 3.5).
  /// May be called repeatedly; replicas are reused across calls.
  ///
  /// Anytime mode: with a `deadline`, workers check the clock at iteration
  /// granularity and stop claiming iterations once it has passed, setting
  /// stats.deadline_hit and leaving best_selected/best_cost at the best
  /// fully-evaluated state so far — never an invalid partial.  One UCT
  /// iteration is always run even when the deadline is already expired
  /// (the zero-slack fallback), and a run whose deadline never fires is
  /// bitwise identical to the unbounded run at search_workers == 1.
  CombMctsResult run(const HananGrid& grid,
                     const SearchDeadline& deadline = std::nullopt);

  /// Resolved worker count (search_workers == 0 -> hardware concurrency).
  std::int32_t workers() const { return std::int32_t(replicas_.size()) + 1; }

 private:
  rl::SteinerSelector& selector_;
  CombMctsConfig config_;
  const experience::Store* experience_;
  std::vector<std::unique_ptr<rl::SteinerSelector>> replicas_;  // workers 1..K-1
};

}  // namespace oar::mcts
