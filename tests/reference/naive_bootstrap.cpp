#include "reference/naive_bootstrap.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bbng {

BootstrapCi bootstrap_mean_ci(std::span<const double> values, double confidence,
                              std::size_t resamples, std::uint64_t seed) {
  BBNG_REQUIRE_MSG(confidence > 0 && confidence < 1, "confidence must be in (0, 1)");
  BBNG_REQUIRE(resamples >= 1);
  BootstrapCi ci;
  if (values.empty()) return ci;

  double sum = 0;
  for (const double v : values) sum += v;
  ci.mean = sum / static_cast<double>(values.size());
  ci.confidence = confidence;
  ci.resamples = resamples;

  Rng rng(seed);
  std::vector<double> means(resamples);
  for (std::size_t r = 0; r < resamples; ++r) {
    double resum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      resum += values[rng.next_below(values.size())];
    }
    means[r] = resum / static_cast<double>(values.size());
  }
  std::sort(means.begin(), means.end());
  // Nearest-rank percentile, clamped so the interval always contains data.
  const double alpha = (1.0 - confidence) / 2.0;
  const auto rank = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(resamples - 1) + 0.5);
    return means[std::min(idx, resamples - 1)];
  };
  ci.lower = rank(alpha);
  ci.upper = rank(1.0 - alpha);
  return ci;
}

}  // namespace bbng
