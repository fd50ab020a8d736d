#include "solver/registry.hpp"

#include <array>

#include "solver/exact_bb.hpp"
#include "solver/portfolio.hpp"
#include "solver/swap_ladder.hpp"
#include "util/assert.hpp"

namespace bbng {
namespace {

/// Shared stateless singletons. "swap" first: it is the conservative default
/// consumers fall back to, and error messages list it first.
const std::array<const BestResponseBackend*, 3>& backends() {
  static const SwapLadderSolver swap_ladder;
  static const ExactBranchAndBound exact_bb;
  static const PortfolioSolver portfolio;
  static const std::array<const BestResponseBackend*, 3> table = {
      &swap_ladder,
      &exact_bb,
      &portfolio,
  };
  return table;
}

}  // namespace

const BestResponseBackend& find_solver(std::string_view name) {
  for (const BestResponseBackend* backend : backends()) {
    if (backend->name() == name) return *backend;
  }
  std::string known;
  for (const BestResponseBackend* backend : backends()) {
    if (!known.empty()) known += "|";
    known += backend->name();
  }
  throw std::invalid_argument("unknown solver \"" + std::string(name) + "\" (expected " +
                              known + ")");
}

bool solver_exists(std::string_view name) {
  for (const BestResponseBackend* backend : backends()) {
    if (backend->name() == name) return true;
  }
  return false;
}

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  for (const BestResponseBackend* backend : backends()) {
    names.emplace_back(backend->name());
  }
  return names;
}

std::vector<std::pair<std::string, std::string>> list_solvers() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const BestResponseBackend* backend : backends()) {
    out.emplace_back(std::string(backend->name()), std::string(backend->description()));
  }
  return out;
}

std::uint64_t total_solver_solves() {
  std::uint64_t total = 0;
  for (const BestResponseBackend* backend : backends()) total += backend->solves_so_far();
  return total;
}

}  // namespace bbng
