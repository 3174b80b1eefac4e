#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "dsslice/util/check.hpp"
#include "dsslice/util/stats.hpp"

namespace dsslice {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.sum(), 42.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: Σ(x-5)² = 32, 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(static_cast<double>(i)) * 10.0;
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(3.0);
  a.merge(b);  // empty.merge(non-empty)
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  RunningStats c;
  a.merge(c);  // non-empty.merge(empty)
  EXPECT_EQ(a.count(), 1u);
}

TEST(BatchStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile_of({5.0}, 73.0), 5.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile_of({}, 50.0), ConfigError);
  EXPECT_THROW(percentile_of({1.0}, -1.0), ConfigError);
  EXPECT_THROW(percentile_of({1.0}, 101.0), ConfigError);
}

TEST(SuccessCounter, RatioAndCi) {
  SuccessCounter c;
  EXPECT_DOUBLE_EQ(c.ratio(), 0.0);
  for (int i = 0; i < 60; ++i) {
    c.add(true);
  }
  for (int i = 0; i < 40; ++i) {
    c.add(false);
  }
  EXPECT_EQ(c.trials(), 100u);
  EXPECT_DOUBLE_EQ(c.ratio(), 0.6);
  EXPECT_NEAR(c.ci95_halfwidth(), 1.96 * std::sqrt(0.6 * 0.4 / 100.0), 1e-12);
}

TEST(SuccessCounter, AddManyAndMerge) {
  SuccessCounter a;
  a.add_many(3, 10);
  SuccessCounter b;
  b.add_many(7, 10);
  a.merge(b);
  EXPECT_EQ(a.successes(), 10u);
  EXPECT_EQ(a.trials(), 20u);
  EXPECT_DOUBLE_EQ(a.ratio(), 0.5);
  EXPECT_THROW(a.add_many(5, 4), ConfigError);
}

TEST(RunningStats, StateRoundTripIsBitExact) {
  RunningStats a;
  for (int i = 0; i < 100; ++i) {
    a.add(0.1 * static_cast<double>(i * i) - 3.7);
  }
  RunningStats b = RunningStats::from_state(a.state());
  // The restored accumulator must behave bit-identically, including after
  // further samples and merges (resume must match an uninterrupted run).
  a.add(12.25);
  b.add(12.25);
  const RunningStatsState sa = a.state();
  const RunningStatsState sb = b.state();
  EXPECT_EQ(sa.n, sb.n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.mean),
            std::bit_cast<std::uint64_t>(sb.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.m2),
            std::bit_cast<std::uint64_t>(sb.m2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.sum),
            std::bit_cast<std::uint64_t>(sb.sum));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.min),
            std::bit_cast<std::uint64_t>(sb.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.max),
            std::bit_cast<std::uint64_t>(sb.max));
}

TEST(RunningStats, EmptyStateRoundTrip) {
  const RunningStats restored = RunningStats::from_state(RunningStats{}.state());
  EXPECT_TRUE(restored.empty());
  RunningStats merged;
  merged.merge(restored);  // empty-merge must stay a no-op
  EXPECT_TRUE(merged.empty());
}

TEST(LinearHistogram, BinsUnderflowOverflowAndMerge) {
  LinearHistogram h(0.0, 64.0);  // 1-unit bins
  h.add(-0.5);                   // underflow
  h.add(0.0);                    // bin 0
  h.add(31.5);                   // bin 31
  h.add(63.999);                 // bin 63
  h.add(64.0);                   // overflow (hi is exclusive)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(31), 1u);
  EXPECT_EQ(h.bin(63), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lower(31), 31.0);

  LinearHistogram other(0.0, 64.0);
  other.add(31.2);
  h.merge(other);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bin(31), 2u);
}

TEST(LinearHistogram, NanCountsAsOverflow) {
  // NaN compares false against both edges; casting it to a bin index would
  // be undefined behaviour, so it is counted with the out-of-range samples.
  LinearHistogram h(0.0, 64.0);
  h.add(std::nan(""));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t b = 0; b < LinearHistogram::kBinCount; ++b) {
    EXPECT_EQ(h.bin(b), 0u) << "bin " << b;
  }
}

TEST(LinearHistogram, MergeRejectsRangeMismatch) {
  LinearHistogram a(0.0, 64.0);
  LinearHistogram b(0.0, 128.0);
  EXPECT_THROW(a.merge(b), ConfigError);
}

TEST(LinearHistogram, RestoreRebuildsCounters) {
  LinearHistogram h;
  std::array<std::uint64_t, LinearHistogram::kBinCount> bins{};
  bins[3] = 7;
  LinearHistogramAccess::restore(h, 2, 5, bins);
  EXPECT_EQ(h.count(), 14u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 5u);
  EXPECT_EQ(h.bin(3), 7u);
}

}  // namespace
}  // namespace dsslice
