#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bbng {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;

  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);

  double sum = 0;
  for (const double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  double ss = 0;
  for (const double v : sorted) ss += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(ss / static_cast<double>(sorted.size()));
  return s;
}

namespace {

/// The interval from `values` and its resampled means (sorted in place).
BootstrapCi percentile_ci(std::span<const double> values, std::span<double> means,
                          double confidence) {
  BootstrapCi ci;
  double sum = 0;
  for (const double v : values) sum += v;
  ci.mean = sum / static_cast<double>(values.size());
  ci.confidence = confidence;
  ci.resamples = means.size();

  std::sort(means.begin(), means.end());
  // Nearest-rank percentile, clamped so the interval always contains data.
  const std::size_t resamples = means.size();
  const double alpha = (1.0 - confidence) / 2.0;
  const auto rank = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(resamples - 1) + 0.5);
    return means[std::min(idx, resamples - 1)];
  };
  ci.lower = rank(alpha);
  ci.upper = rank(1.0 - alpha);
  return ci;
}

}  // namespace

std::vector<BootstrapCi> bootstrap_mean_ci_columns(std::span<const std::span<const double>> columns,
                                                   double confidence, std::size_t resamples,
                                                   std::uint64_t seed) {
  BBNG_REQUIRE_MSG(confidence > 0 && confidence < 1, "confidence must be in (0, 1)");
  BBNG_REQUIRE(resamples >= 1);
  std::vector<BootstrapCi> out(columns.size());
  // The indices of the columns that need resampling, grouped by length.
  // Their order within a length does not matter: a column's interval does
  // not depend on its block mates.
  std::vector<std::size_t> order;
  order.reserve(columns.size());
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const std::span<const double> column = columns[j];
    if (column.empty()) continue;  // keeps the all-zero interval
    if (std::all_of(column.begin(), column.end(),
                    [&](double v) { return v == column.front(); })) {
      // Every resample of a constant column adds the same value `count`
      // times, the add chain of its mean: a zero-width interval at the mean,
      // bit for bit, with no index stream.
      double sum = 0;
      for (const double v : column) sum += v;
      const double mean = sum / static_cast<double>(column.size());
      out[j] = BootstrapCi{mean, mean, mean, confidence, resamples};
      continue;
    }
    order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return columns[a].size() < columns[b].size();
  });

  // means[j * resamples + r]: resample r's mean of the block's column j.
  std::vector<double> means(std::min(kBootstrapBlock, order.size()) * resamples);
  for (std::size_t first = 0, width = 0; first < order.size(); first += width) {
    const std::size_t count = columns[order[first]].size();
    width = 1;
    while (width < kBootstrapBlock && first + width < order.size() &&
           columns[order[first + width]].size() == count) {
      ++width;
    }
    // A short block repeats its last column so the lanes stay fixed; the
    // repeats' sums are dropped.
    std::array<const double*, kBootstrapBlock> lanes{};
    for (std::size_t j = 0; j < kBootstrapBlock; ++j) {
      lanes[j] = columns[order[first + std::min(j, width - 1)]].data();
    }
    Rng rng(seed);
    for (std::size_t r = 0; r < resamples; ++r) {
      std::array<double, kBootstrapBlock> resum{};
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = rng.next_below(count);
        for (std::size_t j = 0; j < kBootstrapBlock; ++j) resum[j] += lanes[j][idx];
      }
      for (std::size_t j = 0; j < width; ++j) {
        means[j * resamples + r] = resum[j] / static_cast<double>(count);
      }
    }
    for (std::size_t j = 0; j < width; ++j) {
      out[order[first + j]] =
          percentile_ci(columns[order[first + j]],
                        std::span<double>(means).subspan(j * resamples, resamples), confidence);
    }
  }
  return out;
}

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
  BBNG_REQUIRE(x.size() == y.size());
  BBNG_REQUIRE_MSG(x.size() >= 2, "a line needs at least two points");
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  BBNG_REQUIRE_MSG(std::abs(denom) > 1e-12, "x values are all equal");
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  if (ss_tot <= 1e-12) {
    fit.r_squared = 1.0;  // constant y: the fit is exact
  } else {
    double ss_res = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = y[i] - (fit.slope * x[i] + fit.intercept);
      ss_res += e * e;
    }
    fit.r_squared = 1.0 - ss_res / ss_tot;
  }
  return fit;
}

LinearFit fit_power_law(std::span<const double> x, std::span<const double> y) {
  BBNG_REQUIRE(x.size() == y.size());
  std::vector<double> lx(x.size()), ly(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    BBNG_REQUIRE_MSG(x[i] > 0 && y[i] > 0, "power-law fit needs positive data");
    lx[i] = std::log(x[i]);
    ly[i] = std::log(y[i]);
  }
  return fit_linear(lx, ly);
}

LinearFit fit_log_law(std::span<const double> x, std::span<const double> y) {
  BBNG_REQUIRE(x.size() == y.size());
  std::vector<double> lx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    BBNG_REQUIRE_MSG(x[i] > 0, "log fit needs positive x");
    lx[i] = std::log2(x[i]);
  }
  return fit_linear(lx, {y.data(), y.size()});
}

std::vector<std::uint64_t> histogram(std::span<const double> values, double lo, double hi,
                                     std::size_t bins) {
  BBNG_REQUIRE(bins >= 1);
  BBNG_REQUIRE(hi > lo);
  std::vector<std::uint64_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (const double v : values) {
    auto bin = static_cast<std::int64_t>((v - lo) / width);
    bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(bin)];
  }
  return counts;
}

}  // namespace bbng
