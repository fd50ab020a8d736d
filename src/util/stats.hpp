// Descriptive statistics and scaling-law fits for the bench harness.
//
// The paper's Table 1 makes *asymptotic* claims (Θ(n), Θ(log n), Ω(√log n),
// 2^O(√log n)); the benches back them with measured growth exponents:
// fit_power_law() regresses log y on log x (slope ≈ the polynomial degree),
// fit_log_law() regresses y on log2 x (slope ≈ the log coefficient).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bbng {

struct Summary {
  std::size_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double median = 0;
  double stddev = 0;  ///< population standard deviation
};

[[nodiscard]] Summary summarize(std::span<const double> values);

/// Percentile-bootstrap confidence interval for the mean.
struct BootstrapCi {
  double mean = 0;
  double lower = 0;       ///< (1−confidence)/2 quantile of resampled means
  double upper = 0;       ///< mirror quantile
  double confidence = 0;  ///< echo of the request (0 when values were empty)
  std::size_t resamples = 0;
};

/// Columns bootstrap_mean_ci_columns resamples per draw of the index stream.
/// The call holds kBootstrapBlock × resamples means (32 KB at the default
/// 1000). Measured on the sweep workload's summary pass run on its own: 8
/// columns ran no faster than 4 and raised its peak RSS by about 130 KB.
inline constexpr std::size_t kBootstrapBlock = 4;

/// Percentile-bootstrap confidence interval for the mean of every column:
/// out[j] resamples columns[j] with replacement `resamples` times and takes
/// the nearest-rank percentile interval of the resampled means.
/// Deterministic for a fixed `seed`, so artifact summaries that embed the
/// intervals stay byte-identical across runs. Degenerate columns collapse
/// gracefully: empty → all zeros, a single value (or constant data) → a
/// zero-width interval at the mean.
///
/// The resample index stream (Rng(seed), next_below(length)) depends only on
/// the seed and the column length, so columns of one length share it: each
/// block of up to kBootstrapBlock equal-length columns draws it once and
/// adds every draw into one accumulator per column. A column keeps its own
/// add order, so out[j] is the same for any set of other columns (the
/// test-only reference resamples one column alone), while the block's
/// accumulators form independent add chains. A constant column resamples to
/// its own add chain every time, so it is summed once and joins no block.
/// Columns may have any lengths
/// and are read in place, not copied. Throws std::invalid_argument on a
/// confidence outside (0, 1) or zero resamples.
[[nodiscard]] std::vector<BootstrapCi> bootstrap_mean_ci_columns(
    std::span<const std::span<const double>> columns, double confidence = 0.95,
    std::size_t resamples = 1000, std::uint64_t seed = 0x626f6f74ULL);

struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r_squared = 0;  ///< 1 on ≥2 collinear points; 0 when undefined
};

/// Ordinary least squares y ≈ slope·x + intercept. Needs ≥ 2 points.
[[nodiscard]] LinearFit fit_linear(std::span<const double> x, std::span<const double> y);

/// Fit y ≈ c · x^slope via log-log regression (x, y must be positive).
[[nodiscard]] LinearFit fit_power_law(std::span<const double> x, std::span<const double> y);

/// Fit y ≈ slope · log2(x) + intercept (x must be positive).
[[nodiscard]] LinearFit fit_log_law(std::span<const double> x, std::span<const double> y);

/// Fixed-width histogram over [lo, hi]; values outside clamp to end bins.
[[nodiscard]] std::vector<std::uint64_t> histogram(std::span<const double> values, double lo,
                                                   double hi, std::size_t bins);

}  // namespace bbng
