// Re-solve-every-visit dynamics: the test-only reference for
// run_best_response_dynamics.
//
// The production loop (game/dynamics.cpp) skips a BestResponse visit when
// the player holds a certified best response and no move has happened since.
// This reference is the loop without that skip: every visit of a player with
// a positive budget calls the backend (or the swap scan). It shares the
// backends, the transposition cache, the cycle detector and the trajectory's
// social cost with production, so a differential test can require every
// field of the two results but `evaluations` and `skips_unchanged` to be
// equal.
#pragma once

#include "game/dynamics.hpp"
#include "graph/digraph.hpp"

namespace bbng {

/// run_best_response_dynamics(initial, config) with every visit solved.
/// `skips_unchanged` stays 0.
[[nodiscard]] DynamicsResult naive_best_response_dynamics(const Digraph& initial,
                                                          const DynamicsConfig& config);

}  // namespace bbng
