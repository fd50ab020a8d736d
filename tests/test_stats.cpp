// Unit tests for the summary-statistics helpers.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "reference/naive_bootstrap.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

TEST(Summarize, BasicMoments) {
  const double data[] = {1, 2, 3, 4, 5};
  const Summary s = summarize(data);
  EXPECT_EQ(s.count, 5U);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(Summarize, EvenCountMedianAverages) {
  const double data[] = {1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(summarize(data).median, 2.5);
}

TEST(Summarize, EmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0U);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(Summarize, SingleValue) {
  const double data[] = {7.5};
  const Summary s = summarize(data);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0);
}

TEST(FitLinear, ExactLine) {
  const double x[] = {0, 1, 2, 3};
  const double y[] = {1, 3, 5, 7};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLinear, NoisyLineStillCloseWithLowerR2) {
  const double x[] = {0, 1, 2, 3, 4, 5};
  const double y[] = {0.1, 0.9, 2.2, 2.8, 4.1, 4.9};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 1.0, 0.1);
  EXPECT_GT(fit.r_squared, 0.98);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(FitLinear, ConstantYIsPerfectFlatFit) {
  const double x[] = {1, 2, 3};
  const double y[] = {4, 4, 4};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(FitLinear, DegenerateInputsRejected) {
  const double one[] = {1};
  EXPECT_THROW((void)fit_linear(one, one), std::invalid_argument);
  const double same_x[] = {2, 2, 2};
  const double y[] = {1, 2, 3};
  EXPECT_THROW((void)fit_linear(same_x, y), std::invalid_argument);
}

TEST(FitPowerLaw, RecoversExponent) {
  // y = 3 x^2
  std::vector<double> x, y;
  for (double v = 1; v <= 64; v *= 2) {
    x.push_back(v);
    y.push_back(3 * v * v);
  }
  const LinearFit fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
}

TEST(FitPowerLaw, LinearGrowthHasSlopeOne) {
  // Spider: diameter = 2(n-1)/3 — slope 1 in log-log space.
  std::vector<double> n, diam;
  for (double k = 1; k <= 256; k *= 2) {
    n.push_back(3 * k + 1);
    diam.push_back(2 * k);
  }
  const LinearFit fit = fit_power_law(n, diam);
  EXPECT_NEAR(fit.slope, 1.0, 0.05);
}

TEST(FitPowerLaw, RejectsNonPositive) {
  const double x[] = {1, 2};
  const double y[] = {0, 1};
  EXPECT_THROW((void)fit_power_law(x, y), std::invalid_argument);
}

TEST(FitLogLaw, RecoversLogCoefficient) {
  // y = 2 log2(x) + 1
  std::vector<double> x, y;
  for (double v = 2; v <= 1024; v *= 2) {
    x.push_back(v);
    y.push_back(2 * std::log2(v) + 1);
  }
  const LinearFit fit = fit_log_law(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
}

TEST(Histogram, CountsAndClamping) {
  const double data[] = {-1, 0.1, 0.4, 0.6, 0.9, 2.0};
  const auto h = histogram(data, 0, 1, 2);
  ASSERT_EQ(h.size(), 2U);
  EXPECT_EQ(h[0], 3U);  // -1 clamps into bin 0, plus 0.1, 0.4
  EXPECT_EQ(h[1], 3U);  // 0.6, 0.9, and 2.0 clamps into the last bin
}

TEST(Histogram, InvalidParamsRejected) {
  const double data[] = {1};
  EXPECT_THROW((void)histogram(data, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)histogram(data, 1, 1, 4), std::invalid_argument);
}

/// bootstrap_mean_ci_columns on `values` alone.
BootstrapCi bootstrap_one(std::span<const double> values, double confidence = 0.95,
                          std::size_t resamples = 1000, std::uint64_t seed = 0x626f6f74ULL) {
  const std::span<const double> column[] = {values};
  return bootstrap_mean_ci_columns(column, confidence, resamples, seed).front();
}

TEST(BootstrapCiTest, IntervalBracketsTheMeanAndLiesInTheDataRange) {
  const double data[] = {2, 4, 4, 4, 5, 5, 7, 9};
  const BootstrapCi ci = bootstrap_one(data);
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_LE(ci.lower, ci.mean);
  EXPECT_GE(ci.upper, ci.mean);
  EXPECT_LT(ci.lower, ci.upper);  // non-degenerate data → non-degenerate CI
  EXPECT_GE(ci.lower, 2.0);       // a resampled mean cannot leave [min, max]
  EXPECT_LE(ci.upper, 9.0);
  EXPECT_DOUBLE_EQ(ci.confidence, 0.95);
  EXPECT_EQ(ci.resamples, 1000u);
}

TEST(BootstrapCiTest, DeterministicForAFixedSeed) {
  const double data[] = {1, 3, 3, 7, 10, 12};
  const BootstrapCi a = bootstrap_one(data);
  const BootstrapCi b = bootstrap_one(data);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
  const BootstrapCi other_seed = bootstrap_one(data, 0.95, 1000, 1234);
  // A different stream gives a (generally) different interval — the seed is
  // genuinely part of the contract, not ignored.
  EXPECT_TRUE(other_seed.lower != a.lower || other_seed.upper != a.upper);
}

TEST(BootstrapCiTest, WiderConfidenceGivesAWiderInterval) {
  const double data[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const BootstrapCi narrow = bootstrap_one(data, 0.5);
  const BootstrapCi wide = bootstrap_one(data, 0.99);
  EXPECT_LE(wide.lower, narrow.lower);
  EXPECT_GE(wide.upper, narrow.upper);
}

TEST(BootstrapCiTest, DegenerateInputsCollapseGracefully) {
  const BootstrapCi empty = bootstrap_one(std::span<const double>{});
  EXPECT_EQ(empty.resamples, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0);
  EXPECT_DOUBLE_EQ(empty.lower, 0);
  EXPECT_DOUBLE_EQ(empty.upper, 0);

  const double single[] = {42.0};
  const BootstrapCi point = bootstrap_one(single);
  EXPECT_DOUBLE_EQ(point.mean, 42.0);
  EXPECT_DOUBLE_EQ(point.lower, 42.0);
  EXPECT_DOUBLE_EQ(point.upper, 42.0);

  const double constant[] = {3.0, 3.0, 3.0, 3.0};
  const BootstrapCi flat = bootstrap_one(constant);
  EXPECT_DOUBLE_EQ(flat.lower, 3.0);
  EXPECT_DOUBLE_EQ(flat.upper, 3.0);

  EXPECT_THROW((void)bootstrap_one(single, 1.5), std::invalid_argument);
  EXPECT_THROW((void)bootstrap_one(single, 0.95, 0), std::invalid_argument);
}

/// Bitwise equality of two intervals: every double compared with memcmp, so
/// a last-ulp difference (or a −0/+0 flip) fails.
void expect_same_bits(const BootstrapCi& got, const BootstrapCi& want, std::size_t column) {
  EXPECT_EQ(std::memcmp(&got.mean, &want.mean, sizeof(double)), 0) << "column " << column;
  EXPECT_EQ(std::memcmp(&got.lower, &want.lower, sizeof(double)), 0) << "column " << column;
  EXPECT_EQ(std::memcmp(&got.upper, &want.upper, sizeof(double)), 0) << "column " << column;
  EXPECT_EQ(std::memcmp(&got.confidence, &want.confidence, sizeof(double)), 0)
      << "column " << column;
  EXPECT_EQ(got.resamples, want.resamples) << "column " << column;
}

/// Each column of `data` against its own bootstrap_mean_ci.
void expect_columns_match(const std::vector<std::vector<double>>& data, double confidence = 0.95,
                          std::size_t resamples = 1000, std::uint64_t seed = 0x626f6f74ULL) {
  const std::vector<std::span<const double>> columns(data.begin(), data.end());
  const std::vector<BootstrapCi> got =
      bootstrap_mean_ci_columns(columns, confidence, resamples, seed);
  ASSERT_EQ(got.size(), data.size());
  for (std::size_t j = 0; j < data.size(); ++j) {
    expect_same_bits(got[j], bootstrap_mean_ci(data[j], confidence, resamples, seed), j);
  }
}

TEST(BootstrapColumns, MatchesPerColumnBootstrapBitForBit) {
  // Non-integral, negative, huge-and-tiny (where add order changes the
  // rounding) and constant columns, across one full block and a one-column
  // tail (F = K + 1).
  Rng rng(77);
  const std::size_t count = 257;
  std::vector<std::vector<double>> data(kBootstrapBlock + 1, std::vector<double>(count));
  for (std::size_t j = 0; j < data.size(); ++j) {
    for (std::size_t i = 0; i < count; ++i) {
      const double u = rng.next_double();
      switch (j % 4) {
        case 0: data[j][i] = u * 1e-3 + 0.1; break;            // non-integral
        case 1: data[j][i] = -1e6 * u + 3.25; break;           // negative
        case 2: data[j][i] = (i % 2 == 0 ? 1e16 : 1.0) * u; break;  // mixed scales
        default: data[j][i] = -2.5; break;                     // constant
      }
    }
  }
  expect_columns_match(data);
  expect_columns_match(data, 0.5, 37, 1234);
}

TEST(BootstrapColumns, EveryWidthUpToTwoBlocks) {
  Rng rng(78);
  std::vector<std::vector<double>> data;
  for (std::size_t width = 1; width <= 2 * kBootstrapBlock + 1; ++width) {
    data.emplace_back(50);
    for (double& v : data.back()) v = rng.next_double() - 0.5;
    expect_columns_match(data, 0.95, 64);
  }
}

TEST(BootstrapColumns, DegenerateColumns) {
  expect_columns_match({{42.0}, {-0.5}, {0.1}});  // count 1
  expect_columns_match({});
  EXPECT_TRUE(bootstrap_mean_ci_columns({}).empty());
  // Empty columns give the empty interval, like the reference.
  expect_columns_match({{}, {}});
}

TEST(BootstrapColumns, ConstantColumnsMatchTheReferenceBitForBit) {
  // Constant columns take the one-add-chain shortcut. 0.1 × 4,500 and
  // (1/3) × 4,500 sum to something other than count·c, so a shortcut that
  // multiplied would drift in the last ulp. They sit in one length with
  // non-constant columns (one constant but for its last value), so the
  // blocks of the rest still form around them.
  Rng rng(80);
  const std::size_t count = 4500;
  std::vector<std::vector<double>> data;
  data.emplace_back(count, 0.1);
  data.emplace_back(count);
  for (double& v : data.back()) v = rng.next_double() * 7.0;
  data.emplace_back(count, 1.0 / 3.0);
  data.emplace_back(count, -0.0);
  data.emplace_back(count, 0.1);
  data.back().back() = 0.2;
  data.emplace_back(count, 1e16);
  data.emplace_back(count);
  for (double& v : data.back()) v = rng.next_double() - 0.5;
  data.push_back({0.1, 0.1, 0.1});
  expect_columns_match(data, 0.95, 200);

  double chain = 0;
  for (std::size_t i = 0; i < count; ++i) chain += 0.1;
  EXPECT_NE(chain, 0.1 * static_cast<double>(count));
  const std::vector<std::span<const double>> columns(data.begin(), data.end());
  const std::vector<BootstrapCi> got = bootstrap_mean_ci_columns(columns, 0.95, 200);
  for (const std::size_t j : {0U, 2U, 3U, 5U, 7U}) {
    EXPECT_EQ(got[j].lower, got[j].mean) << "column " << j;
    EXPECT_EQ(got[j].upper, got[j].mean) << "column " << j;
  }
  EXPECT_EQ(got[0].mean, chain / static_cast<double>(count));
  EXPECT_LT(got[4].lower, got[4].upper);
}

TEST(BootstrapColumns, ColumnsOfMixedLengthsMatchTheirOwnBootstrap) {
  // Interleaved lengths, so each length's columns are grouped out of order:
  // 3 columns of 40, 11 of 7 (full blocks and a short one), 2 of 1 and 2
  // empty ones.
  Rng rng(79);
  std::vector<std::vector<double>> data;
  for (std::size_t j = 0; j < 18; ++j) {
    const std::size_t count = j % 9 == 4 ? 0 : (j % 9 == 2 ? 1 : (j % 6 == 0 ? 40 : 7));
    data.emplace_back(count);
    for (double& v : data.back()) v = (rng.next_double() - 0.3) * 1e3;
  }
  expect_columns_match(data);
  expect_columns_match(data, 0.8, 101, 99);
}

}  // namespace
}  // namespace bbng
