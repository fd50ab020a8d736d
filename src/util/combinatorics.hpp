// Combinatorial enumeration used by the exact best-response solver and the
// exact facility-location solvers.
//
// The central type is CombinationIterator: it walks all k-subsets of
// {0,…,n-1} in lexicographic order with O(1) amortised advance and no heap
// churn, so the exact solvers can enumerate millions of candidate strategies
// without allocation. binomial() saturates at a clamp instead of overflowing
// so callers can ask "is C(n,k) small enough for exact search?" safely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace bbng {

/// C(n, k), clamped at `clamp` (default: 2^62) to avoid overflow.
[[nodiscard]] std::uint64_t binomial(std::uint64_t n, std::uint64_t k,
                                     std::uint64_t clamp = (1ULL << 62));

/// Lexicographic k-subset enumerator over {0, …, n-1}.
///
///   for (CombinationIterator it(5, 3); it.valid(); it.advance())
///     use(it.current());   // {0,1,2}, {0,1,3}, …, {2,3,4}
///
/// k == 0 yields exactly one (empty) combination.
class CombinationIterator {
 public:
  CombinationIterator(std::uint32_t n, std::uint32_t k);

  /// Start enumeration from a given subset (e.g. from unrank_combination),
  /// continuing in lexicographic order.
  CombinationIterator(std::uint32_t n, std::uint32_t k, std::vector<std::uint32_t> start);

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] std::span<const std::uint32_t> current() const noexcept {
    return {indices_.data(), indices_.size()};
  }
  void advance() noexcept;

  /// Restart from the first combination.
  void reset() noexcept;

 private:
  std::uint32_t n_;
  std::uint32_t k_;
  bool valid_;
  std::vector<std::uint32_t> indices_;
};

/// The `rank`-th k-subset of {0,…,n-1} in lexicographic order
/// (rank ∈ [0, C(n,k))). Decodes a strategy digit of a profile code (see
/// game/improvement_graph.cpp).
[[nodiscard]] std::vector<std::uint32_t> unrank_combination(std::uint32_t n, std::uint32_t k,
                                                            std::uint64_t rank);

/// Inverse of unrank_combination: the lexicographic rank of a sorted
/// k-subset of {0,…,n-1}.
[[nodiscard]] std::uint64_t rank_combination(std::uint32_t n,
                                             std::span<const std::uint32_t> subset);

/// Apply `fn(subset)` to every k-subset of {0,…,n-1}; if fn returns false the
/// enumeration stops early. Returns the number of subsets visited.
template <typename Fn>
std::uint64_t for_each_combination(std::uint32_t n, std::uint32_t k, Fn&& fn) {
  std::uint64_t visited = 0;
  for (CombinationIterator it(n, k); it.valid(); it.advance()) {
    ++visited;
    if (!fn(it.current())) break;
  }
  return visited;
}

}  // namespace bbng
