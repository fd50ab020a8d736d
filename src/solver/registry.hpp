// String-keyed registry of best-response solver backends.
//
// Dynamics configs, equilibrium checks, engine specs, and CLI users all name
// their solver by the same registry key, so "which algorithm answers
// best-response queries" is a declarative, validated choice rather than a
// hard-wired call site. Backends are stateless shared singletons; lookups
// are cheap and thread-safe.
//
//   "swap"      — the legacy ladder (exact when feasible, else greedy+swap);
//                 bit-compatible default of every pre-registry consumer.
//   "exact_bb"  — certified branch-and-bound (solver/exact_bb.hpp).
//   "portfolio" — heuristic race, never worse than the swap baseline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "solver/solver.hpp"

namespace bbng {

/// Backend by registry name. Throws std::invalid_argument naming the unknown
/// key and listing the available ones (spec validation surfaces the message
/// verbatim).
[[nodiscard]] const BestResponseBackend& find_solver(std::string_view name);

/// True iff `name` is a registered backend.
[[nodiscard]] bool solver_exists(std::string_view name);

/// Registered names, in registry (stable) order.
[[nodiscard]] std::vector<std::string> solver_names();

/// (name, one-line description) of every backend, for `bbng_engine
/// list-solvers` and error messages.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> list_solvers();

/// Searched solves so far across every registered backend, merged across
/// threads: the one answer behind the runner's progress line and its
/// solves-per-second gauge.
[[nodiscard]] std::uint64_t total_solver_solves();

}  // namespace bbng
