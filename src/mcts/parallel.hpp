#pragma once

// The tree-parallel search is CombMcts with search_workers > 1; this name
// is kept for code that still spells it the old way.

#include "mcts/comb_mcts.hpp"

namespace oar::mcts {

using ParallelCombMcts = CombMcts;

}  // namespace oar::mcts
