#include "mcts/comb_mcts.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "experience/warm_start.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace oar::mcts {

namespace {

struct MctsObs {
  obs::Counter& episodes;
  obs::Counter& iterations;
  obs::Counter& simulations;
  obs::Counter& expansions;
  obs::Histogram& episode_seconds;
  obs::Counter& vloss_reverts;
  obs::Counter& eval_waits;
};

MctsObs& mcts_obs() {
  auto& reg = obs::MetricsRegistry::instance();
  static MctsObs o{
      reg.counter("oar_mcts_episodes_total",
                  "Combinatorial MCTS search trees built (CombMcts::run)"),
      reg.counter("oar_mcts_iterations_total", "UCT iterations across all episodes"),
      reg.counter("oar_mcts_simulations_total",
                  "Leaf evaluations (critic or exact) across all episodes"),
      reg.counter("oar_mcts_expansions_total", "Node expansions across all episodes"),
      reg.histogram("oar_mcts_episode_seconds", obs::latency_buckets(),
                    "Wall time per CombMcts episode"),
      reg.counter("oar_mcts_vloss_reverts_total",
                  "Virtual losses reverted during backup (== applied when quiescent)"),
      reg.counter("oar_mcts_eval_waits_total",
                  "Descents that waited on another worker's leaf evaluation"),
  };
  return o;
}

// `vloss` counts in-flight descents through this edge; it is stamped during
// selection and reverted during backup, and therefore ZERO whenever the
// tree is quiescent.
struct Edge {
  Vertex action = hanan::kInvalidVertex;
  double prior = 0.0;
  std::int64_t visits = 0;
  double total_value = 0.0;
  std::int32_t child = -1;  // node index, -1 until materialized
  std::int32_t vloss = 0;   // in-flight descents (virtual loss), >= 0
};

struct Node {
  std::int32_t parent = -1;
  Vertex action = hanan::kInvalidVertex;  // action leading here
  std::int64_t action_priority = -1;
  std::int32_t level = 0;     // number of selected Steiner points
  std::int32_t flat_run = 0;  // consecutive flat-cost actions
  double cost = -1.0;         // exact raw state cost, -1 until computed
  bool expanded = false;
  bool terminal = false;
  // A worker has claimed this leaf and is evaluating it outside the tree
  // lock; other descents arriving here wait on eval_cv instead of
  // duplicating the (expensive) evaluation.
  bool eval_busy = false;
  std::vector<Edge> edges;
};

struct Step {
  std::int32_t node;
  std::size_t edge;
};

// Per-worker private state: the ActorCritic (forward on the worker's own
// selector, routing scratch) and reusable buffers.  Nothing here is shared,
// so the only synchronization in the search is the tree mutex.
struct Worker {
  ActorCritic ac;
  std::vector<double> fsp;       // priority order
  std::vector<Vertex> selected;  // leaf state snapshot
  std::vector<Step> path;        // descent path of the current iteration

  Worker(rl::SteinerSelector& selector, const HananGrid& grid) : ac(selector, grid) {}
};

}  // namespace

std::int32_t scaled_iterations(std::int32_t base_iterations,
                               const hanan::HananGrid& grid) {
  // Paper reference size: 16 x 16 x 4 = 1024 vertices.
  const double reference = 16.0 * 16.0 * 4.0;
  const double ratio = double(grid.num_vertices()) / reference;
  return std::max<std::int32_t>(
      8, std::int32_t(std::lround(double(base_iterations) * std::max(ratio, 0.05))));
}

void CombMctsConfig::validate() const {
  util::check_field(iterations_per_move >= 1, "CombMctsConfig",
                    "iterations_per_move", "be >= 1", iterations_per_move);
  util::check_field(c_puct >= 0.0, "CombMctsConfig", "c_puct",
                    "be non-negative", c_puct);
  util::check_field(flat_cost_patience >= 0, "CombMctsConfig",
                    "flat_cost_patience", "be >= 0", flat_cost_patience);
  util::check_field(flat_eps >= 0.0, "CombMctsConfig", "flat_eps",
                    "be non-negative", flat_eps);
  util::check_field(max_children >= 0, "CombMctsConfig", "max_children",
                    "be >= 0 (0 = all valid children)", max_children);
  util::check_field(prior_uniform_mix >= 0.0 && prior_uniform_mix <= 1.0,
                    "CombMctsConfig", "prior_uniform_mix", "be in [0, 1]",
                    prior_uniform_mix);
  util::check_field(search_workers >= 0, "CombMctsConfig", "search_workers",
                    "be >= 0 (0 = hardware concurrency, 1 = one worker)",
                    search_workers);
  util::check_field(warm_start_weight >= 0.0 && warm_start_weight <= 1.0,
                    "CombMctsConfig", "warm_start_weight", "be in [0, 1]",
                    warm_start_weight);
  util::check_field(warm_start_visits >= 0, "CombMctsConfig",
                    "warm_start_visits", "be >= 0", warm_start_visits);
}

CombMcts::CombMcts(rl::SteinerSelector& selector, CombMctsConfig config,
                   const experience::Store* experience)
    : selector_(selector), config_(config), experience_(experience) {
  config_.validate();
  const std::int32_t workers =
      config_.search_workers == 0
          ? std::max<std::int32_t>(1, std::int32_t(std::thread::hardware_concurrency()))
          : config_.search_workers;
  for (std::int32_t i = 1; i < workers; ++i) replicas_.push_back(selector_.replica());
}

CombMcts::~CombMcts() = default;

CombMctsResult CombMcts::run(const HananGrid& grid, const SearchDeadline& deadline) {
  util::Timer timer;
  CombMctsResult result;
  const auto n_vertices = std::size_t(grid.num_vertices());
  result.label.assign(n_vertices, 0.0f);
  result.label_mask.assign(n_vertices, 0.0f);

  const std::int32_t budget =
      std::max<std::int32_t>(0, std::int32_t(grid.pins().size()) - 2);

  std::deque<Worker> workers;  // deque: Worker is neither movable nor copyable
  workers.emplace_back(selector_, grid);
  for (const auto& replica : replicas_) workers.emplace_back(*replica, grid);

  // Per-vertex selection statistics (eq. (3)), indexed by priority.
  std::vector<std::int64_t> n_sel(n_vertices, 0), n_opp(n_vertices, 0);

  // deque: stable node references across materialization.
  std::deque<Node> nodes;
  nodes.emplace_back();  // root
  nodes[0].cost = workers[0].ac.exact_cost({});
  result.initial_cost = nodes[0].cost;
  result.final_cost = nodes[0].cost;
  result.best_cost = nodes[0].cost;

  const double rc0 = std::max(nodes[0].cost, 1e-12);
  // Unroutable pins: no Steiner selection can help, and every value below
  // would be NaN.  Report the degenerate episode.
  if (!std::isfinite(nodes[0].cost)) nodes[0].terminal = true;
  if (budget == 0) nodes[0].terminal = true;

  // Normalized state value.  Disconnected states (cost == +inf, see
  // OarmstResult::cost) map to a finite penalty well below any reachable
  // connected value — the cost-increase terminal rule ends episodes long
  // before cost reaches 3*rc0 — so UCT's running means stay finite instead
  // of absorbing -inf into whole subtrees.
  auto value_of = [&](double cost) {
    return std::isfinite(cost) ? (rc0 - cost) / rc0 : -2.0;
  };

  // --- persistent-experience warm start (DESIGN.md §18) ---
  // Resolved once, before any worker starts; applied at the initial root's
  // expansion commit under the tree lock.  With warm_start off, no store
  // attached, or no applicable experience, `warm` stays empty and every
  // warm branch below is dead — the search is bitwise the cold search.
  experience::WarmStart warm;
  std::vector<Vertex> warm_best;  // floor combination, request space
  bool best_is_warm = false;      // the floor currently holds best_cost
  Vertex warm_first = hanan::kInvalidVertex;  // root edge to visit-seed
  double warm_seed_value = 0.0;
  if (config_.warm_start && experience_ != nullptr && !nodes[0].terminal) {
    warm = experience::lookup_warm_start(*experience_, grid);
    result.stats.warm_matches = warm.matches;
    result.stats.warm_started = !warm.empty();
    if (warm.exact && !warm.best.empty() && std::ssize(warm.best) <= budget) {
      // Re-evaluate the recorded combination under THIS search's exact
      // cost model and adopt it as the best-so-far floor: a replayed
      // layout can then never finish worse than its recorded episode.
      const double floor_cost = workers[0].ac.exact_cost(warm.best);
      ++result.stats.simulations;
      warm_first = warm.best.front();  // priority-sorted: the first action
      warm_seed_value = value_of(floor_cost);
      if (floor_cost < result.best_cost) {
        result.best_cost = floor_cost;
        warm_best = warm.best;
        best_is_warm = true;
      }
    }
  }

  std::mutex tree_mu;
  std::condition_variable eval_cv;
  std::atomic<std::int32_t> tickets{0};
  std::exception_ptr first_error;
  std::int32_t root = 0;
  // Node achieving best_cost (tree lock).  Its exact cost was computed, so
  // the state it denotes is always a valid routed answer.
  std::int32_t best_node = 0;
  // Anytime bookkeeping: iterations fully completed (any worker), and
  // whether any worker observed the deadline as expired.
  std::atomic<std::int64_t> completed{0};
  std::atomic<bool> deadline_expired{false};

  // State of a node (tree lock must be held): path actions root -> node.
  auto state_of_into = [&](std::int32_t node, std::vector<Vertex>& out) {
    out.clear();
    for (std::int32_t cur = node; cur != 0; cur = nodes[std::size_t(cur)].parent) {
      out.push_back(nodes[std::size_t(cur)].action);
    }
    std::reverse(out.begin(), out.end());
  };

  // Terminal rules (paper Sec. 3.4) on snapshot values: sets `terminal`
  // and computes the node's flat-cost run.
  auto terminal_rules = [&](std::int32_t level, double cost, double parent_cost,
                            std::int32_t parent_flat_run, bool& terminal,
                            std::int32_t& flat_run) {
    if (level >= budget) terminal = true;
    if (config_.stop_on_cost_increase &&
        cost > parent_cost * (1.0 + config_.flat_eps)) {
      terminal = true;
    }
    if (std::abs(cost - parent_cost) <= parent_cost * config_.flat_eps) {
      flat_run = parent_flat_run + 1;
      if (flat_run >= config_.flat_cost_patience) terminal = true;
    } else {
      flat_run = 0;
    }
  };

  // One UCT iteration: descend under the tree lock, evaluate the leaf
  // outside it, commit + backup under the lock again.
  auto run_iteration = [&](Worker& w) {
    std::unique_lock<std::mutex> lock(tree_mu);
    std::int32_t cur = root;
    w.path.clear();

    // --- selection ---
    for (;;) {
      Node& node = nodes[std::size_t(cur)];
      if (node.terminal) break;
      if (!node.expanded) {
        if (node.eval_busy) {
          // Another worker is evaluating this exact leaf: wait for its
          // result rather than duplicating the evaluation, then re-examine
          // (the node may now be expanded — descend into it — or terminal).
          ++result.stats.eval_waits;
          eval_cv.wait(lock, [&] { return !nodes[std::size_t(cur)].eval_busy; });
          continue;
        }
        break;  // fresh leaf: this worker claims it below
      }

      assert(!node.edges.empty());
      // Selection score over EFFECTIVE statistics (visits + vloss,
      // total_value - vloss): each in-flight descent counts as one visit
      // with the worst connected outcome, steering concurrent workers
      // apart.  With vloss == 0 everywhere these are the plain UCT
      // expressions, bit for bit.
      std::int64_t total_visits = 0;
      for (const Edge& e : node.edges) total_visits += e.visits + e.vloss;
      const double sqrt_total = std::sqrt(double(total_visits));

      std::size_t best = 0;
      double best_score = -1e300;
      for (std::size_t i = 0; i < node.edges.size(); ++i) {
        const Edge& e = node.edges[i];
        const std::int64_t n_eff = e.visits + e.vloss;
        double q;
        if (e.vloss == 0) {
          q = e.visits == 0 ? 0.0 : e.total_value / double(e.visits);
        } else {
          q = (e.total_value - double(e.vloss)) / double(n_eff);
        }
        const double u =
            config_.c_puct * e.prior * sqrt_total / (1.0 + double(n_eff));
        double score = q + u;
        if (total_visits == 0) score = e.prior;  // cold node: order by prior
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }

      // eq. (3) bookkeeping: every candidate gets an opportunity, the
      // chosen one a selection.
      for (const Edge& e : node.edges) {
        ++n_opp[std::size_t(grid.priority_of(e.action))];
      }
      ++n_sel[std::size_t(grid.priority_of(node.edges[best].action))];

      w.path.push_back({cur, best});
      Edge& edge = node.edges[best];
      edge.vloss += 1;
      ++result.stats.vloss_applied;
      if (edge.child < 0) {
        Node child;
        child.parent = cur;
        child.action = edge.action;
        child.action_priority = grid.priority_of(edge.action);
        child.level = node.level + 1;
        edge.child = std::int32_t(nodes.size());
        nodes.push_back(std::move(child));
        ++result.stats.nodes;
      }
      cur = edge.child;
    }

    auto backup = [&](double value) {
      for (const Step& step : w.path) {
        Edge& e = nodes[std::size_t(step.node)].edges[step.edge];
        e.vloss -= 1;
        ++result.stats.vloss_reverted;
        e.visits += 1;
        e.total_value += value;
      }
    };

    // --- terminal leaf: no evaluation needed, commit under the same lock.
    if (nodes[std::size_t(cur)].terminal) {
      backup(value_of(nodes[std::size_t(cur)].cost));
      return;
    }

    // --- claim the leaf and snapshot everything the evaluation reads.
    // Parent cost/flat_run are immutable by now: they were committed when
    // the parent itself was evaluated, strictly before any child existed.
    double leaf_cost, parent_cost = 0.0;
    std::int32_t leaf_level, leaf_flat_run, parent_flat_run = 0;
    std::int64_t leaf_action_priority;
    {
      Node& leaf = nodes[std::size_t(cur)];
      leaf.eval_busy = true;
      leaf_cost = leaf.cost;
      leaf_level = leaf.level;
      leaf_flat_run = leaf.flat_run;
      leaf_action_priority = leaf.action_priority;
      if (leaf.parent >= 0) {
        const Node& parent = nodes[std::size_t(leaf.parent)];
        parent_cost = parent.cost;
        parent_flat_run = parent.flat_run;
      }
      state_of_into(cur, w.selected);
    }
    lock.unlock();

    double value = 0.0;
    double cost = leaf_cost;
    bool terminal = false;
    bool expanded = false;
    std::int32_t flat_run = leaf_flat_run;
    const bool need_cost = leaf_cost < 0.0;
    std::vector<Edge> new_edges;
    try {
      if (need_cost) {
        cost = w.ac.exact_cost(w.selected);
        terminal_rules(leaf_level, cost, parent_cost, parent_flat_run, terminal,
                       flat_run);
      }
      if (terminal) {
        value = value_of(cost);
      } else {
        // Expansion: children from the actor policy, on the worker's own
        // selector.
        w.ac.fsp_into(w.selected, w.fsp);
        auto policy = w.ac.policy(w.selected, leaf_action_priority, w.fsp);
        if (config_.max_children > 0 &&
            std::ssize(policy) > config_.max_children) {
          std::partial_sort(policy.begin(), policy.begin() + config_.max_children,
                            policy.end(), [](const auto& a, const auto& b) {
                              return a.second > b.second;
                            });
          policy.resize(std::size_t(config_.max_children));
          double total = 0.0;
          for (const auto& [v, p] : policy) total += p;
          if (total > 0.0) {
            for (auto& [v, p] : policy) p /= total;
          }
        }
        if (policy.empty()) {
          terminal = true;
          value = value_of(cost);
        } else {
          const double mix = config_.prior_uniform_mix;
          const double uniform = 1.0 / double(policy.size());
          new_edges.reserve(policy.size());
          for (const auto& [v, p] : policy) {
            Edge e;
            e.action = v;
            e.prior = (1.0 - mix) * p + mix * uniform;
            new_edges.push_back(e);
          }
          expanded = true;
          // Simulation: critic completion (or exact state cost in
          // curriculum mode).
          const double predicted =
              config_.use_critic ? w.ac.critic_cost(w.selected, budget, w.fsp) : cost;
          value = value_of(predicted);
        }
      }
    } catch (...) {
      // Release the claim and revert the stamped virtual losses (no visit,
      // no value) so waiters unblock and the tree stays consistent, then
      // let the worker loop surface the error.
      lock.lock();
      nodes[std::size_t(cur)].eval_busy = false;
      for (const Step& step : w.path) {
        nodes[std::size_t(step.node)].edges[step.edge].vloss -= 1;
        ++result.stats.vloss_reverted;
      }
      lock.unlock();
      eval_cv.notify_all();
      throw;
    }

    // --- commit + backup ---
    lock.lock();
    Node& leaf = nodes[std::size_t(cur)];
    if (need_cost) {
      leaf.cost = cost;
      leaf.flat_run = flat_run;
      if (cost < result.best_cost) {
        result.best_cost = cost;
        best_node = cur;
        best_is_warm = false;
      }
    }
    if (terminal) leaf.terminal = true;
    if (expanded) {
      leaf.edges = std::move(new_edges);
      if (cur == 0 && !warm.empty()) {
        // Warm start at the initial root (expanded exactly once): blend the
        // experience prior (renormalized over the actual child set) into
        // the expansion priors, P' = (1-λ)·P_search + λ·P_exp, then seed
        // synthetic visits on the recorded first action of an exact match
        // so UCT resumes from the recorded trajectory's statistics.
        if (!warm.prior.empty()) {
          double mass = 0.0;
          for (const Edge& e : leaf.edges) {
            mass += double(warm.prior[std::size_t(grid.priority_of(e.action))]);
          }
          if (mass > 0.0) {
            const double lam = config_.warm_start_weight;
            for (Edge& e : leaf.edges) {
              const double p_exp =
                  double(warm.prior[std::size_t(grid.priority_of(e.action))]) / mass;
              e.prior = (1.0 - lam) * e.prior + lam * p_exp;
            }
          }
        }
        if (warm_first != hanan::kInvalidVertex && config_.warm_start_visits > 0) {
          for (Edge& e : leaf.edges) {
            if (e.action == warm_first) {
              e.visits += config_.warm_start_visits;
              e.total_value += double(config_.warm_start_visits) * warm_seed_value;
              break;
            }
          }
        }
      }
      leaf.expanded = true;
      ++result.stats.expansions;
      ++result.stats.simulations;
    }
    leaf.eval_busy = false;
    backup(value);
    lock.unlock();
    eval_cv.notify_all();
  };

  auto worker_loop = [&](Worker& w) {
    try {
      for (;;) {
        // Anytime control at iteration granularity.  The completed > 0
        // guard keeps the run's very first iteration alive even under an
        // already-expired deadline (the zero-slack fallback); concurrent
        // workers may each run one such iteration, which only strengthens
        // the fallback.
        if (deadline && completed.load(std::memory_order_relaxed) > 0 &&
            SearchClock::now() >= *deadline) {
          deadline_expired.store(true, std::memory_order_relaxed);
          tickets.store(0, std::memory_order_relaxed);
          break;
        }
        if (tickets.fetch_sub(1, std::memory_order_relaxed) <= 0) break;
        run_iteration(w);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(tree_mu);
      if (!first_error) first_error = std::current_exception();
      tickets.store(0, std::memory_order_relaxed);
    }
  };

  // Virtual-loss invariant: between root moves the tree is quiescent, so
  // every stamp must have been reverted.  Violations are real bugs (a lost
  // backup or a leaked claim), never timing noise — fail loudly.
  auto check_vloss_clean = [&] {
    for (const Node& n : nodes) {
      for (const Edge& e : n.edges) {
        if (e.vloss != 0) {
          throw std::logic_error("CombMcts: virtual loss not reverted after move");
        }
      }
    }
    if (result.stats.vloss_applied != result.stats.vloss_reverted) {
      throw std::logic_error("CombMcts: vloss applied/reverted counters diverged");
    }
  };

  while (!nodes[std::size_t(root)].terminal) {
    // --- alpha UCT iterations from the current root, K workers ---
    tickets.store(config_.iterations_per_move, std::memory_order_relaxed);
    std::vector<std::thread> threads;
    threads.reserve(workers.size() - 1);
    for (std::size_t i = 1; i < workers.size(); ++i) {
      threads.emplace_back([&, i] { worker_loop(workers[i]); });
    }
    worker_loop(workers[0]);  // the caller is worker 0 (K == 1 never spawns)
    for (std::thread& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);
    result.stats.iterations = completed.load(std::memory_order_relaxed);
    check_vloss_clean();
    if (deadline_expired.load(std::memory_order_relaxed)) {
      // best_selected already denotes the best fully-evaluated state, so
      // executing further moves (and the exact_cost call that entails)
      // would only spend budget the caller no longer has.
      result.stats.deadline_hit = true;
      break;
    }

    // --- execute the most-visited root action (single-threaded again) ---
    Node& root_node = nodes[std::size_t(root)];
    if (!root_node.expanded || root_node.edges.empty()) break;
    std::size_t best = 0;
    for (std::size_t i = 1; i < root_node.edges.size(); ++i) {
      if (root_node.edges[i].visits > root_node.edges[best].visits) best = i;
    }
    Edge& chosen = root_node.edges[best];
    if (chosen.child < 0) break;  // never explored: nothing to execute
    root = chosen.child;
    ++result.stats.executed_moves;

    Node& new_root = nodes[std::size_t(root)];
    if (new_root.cost < 0.0) {
      state_of_into(root, workers[0].selected);
      new_root.cost = workers[0].ac.exact_cost(workers[0].selected);
      bool terminal = false;
      terminal_rules(new_root.level, new_root.cost,
                     nodes[std::size_t(new_root.parent)].cost,
                     nodes[std::size_t(new_root.parent)].flat_run, terminal,
                     new_root.flat_run);
      if (terminal) new_root.terminal = true;
    }
    if (new_root.cost < result.best_cost) {
      result.best_cost = new_root.cost;
      best_node = root;
      best_is_warm = false;
    }
  }

  state_of_into(root, result.selected);
  if (best_is_warm) {
    result.best_selected = warm_best;
  } else {
    state_of_into(best_node, result.best_selected);
  }
  result.final_cost = nodes[std::size_t(root)].cost;

  // eq. (3): L_fsp(v) = n_sel / n_opp, in priority order.  The mask marks
  // vertices that are legal Steiner locations (not pins / obstacles).
  for (Vertex v = 0; v < grid.num_vertices(); ++v) {
    const auto p = std::size_t(grid.priority_of(v));
    if (!grid.is_blocked(v) && !grid.is_pin(v)) result.label_mask[p] = 1.0f;
    if (n_opp[p] > 0) {
      result.label[p] = float(double(n_sel[p]) / double(n_opp[p]));
    }
  }
  result.stats.seconds = timer.seconds();

  // One flush per episode: the search's per-iteration counters stay plain
  // struct fields and only land in the global registry here.
  MctsObs& o = mcts_obs();
  o.episodes.inc();
  o.iterations.add(std::uint64_t(result.stats.iterations));
  o.simulations.add(std::uint64_t(result.stats.simulations));
  o.expansions.add(std::uint64_t(result.stats.expansions));
  o.vloss_reverts.add(std::uint64_t(result.stats.vloss_reverted));
  o.eval_waits.add(std::uint64_t(result.stats.eval_waits));
  o.episode_seconds.observe(result.stats.seconds);
  return result;
}

}  // namespace oar::mcts
