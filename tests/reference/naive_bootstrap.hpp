// Naive percentile bootstrap: the test-only reference for
// bootstrap_mean_ci_columns (util/stats.hpp).
//
// Resamples one column at a time from its own index stream, one dependent
// add chain per resample, exactly as the summary pass did before columns of
// one count shared a stream. bootstrap_mean_ci_columns must match it bit for
// bit on every column.
#pragma once

#include <cstdint>
#include <span>

#include "util/stats.hpp"

namespace bbng {

/// Resample `values` with replacement `resamples` times from Rng(seed) and
/// take the nearest-rank percentile interval of the resampled means. Empty
/// input gives the all-zero interval. Throws std::invalid_argument on a
/// confidence outside (0, 1) or zero resamples.
[[nodiscard]] BootstrapCi bootstrap_mean_ci(std::span<const double> values,
                                            double confidence = 0.95,
                                            std::size_t resamples = 1000,
                                            std::uint64_t seed = 0x626f6f74ULL);

}  // namespace bbng
