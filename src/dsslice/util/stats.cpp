#include "dsslice/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "dsslice/util/check.hpp"

namespace dsslice {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStatsState RunningStats::state() const {
  return RunningStatsState{n_, mean_, m2_, sum_, min_, max_};
}

RunningStats RunningStats::from_state(const RunningStatsState& state) {
  RunningStats s;
  s.n_ = state.n;
  s.mean_ = state.mean;
  s.m2_ = state.m2;
  s.sum_ = state.sum;
  s.min_ = state.min;
  s.max_ = state.max;
  return s;
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) {
    return 0.0;
  }
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double mean_of(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) {
    s.add(x);
  }
  return s.mean();
}

double stddev_of(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) {
    s.add(x);
  }
  return s.stddev();
}

double percentile_of(std::vector<double> xs, double p) {
  DSSLICE_REQUIRE(!xs.empty(), "percentile of empty sample");
  DSSLICE_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) {
    return xs.front();
  }
  const double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t k = 0; k < kBucketCount; ++k) {
    buckets_[k] += other.buckets_[k];
  }
  count_ += other.count_;
}

void LogHistogram::clear() {
  buckets_.fill(0);
  count_ = 0;
}

double LogHistogram::bucket_lower(std::size_t index) {
  DSSLICE_REQUIRE(index < kBucketCount, "histogram bucket out of range");
  if (index < 8) {  // buckets 0–3 hold exact values; 4–7 are unreachable
    return static_cast<double>(index);
  }
  const std::size_t b = index / 4;
  const std::size_t sub = index % 4;
  return std::ldexp(1.0 + static_cast<double>(sub) / 4.0, static_cast<int>(b));
}

double LogHistogram::bucket_upper(std::size_t index) {
  DSSLICE_REQUIRE(index < kBucketCount, "histogram bucket out of range");
  if (index < 4) {
    return static_cast<double>(index + 1);
  }
  const std::size_t b = index / 4;
  const std::size_t sub = index % 4;
  return sub == 3
             ? std::ldexp(1.0, static_cast<int>(b) + 1)
             : std::ldexp(1.0 + static_cast<double>(sub + 1) / 4.0,
                          static_cast<int>(b));
}

double LogHistogram::percentile(double p) const {
  DSSLICE_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (count_ == 0) {
    return 0.0;
  }
  const double target =
      std::max(1.0, std::ceil((p / 100.0) * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < kBucketCount; ++k) {
    if (buckets_[k] == 0) {
      continue;
    }
    const std::uint64_t next = cumulative + buckets_[k];
    if (static_cast<double>(next) >= target) {
      const double lo = bucket_lower(k);
      const double hi = bucket_upper(k);
      const double frac = (target - static_cast<double>(cumulative)) /
                          static_cast<double>(buckets_[k]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return bucket_upper(kBucketCount - 1);
}

LinearHistogram::LinearHistogram(double lo, double hi) : lo_(lo), hi_(hi) {
  DSSLICE_REQUIRE(lo < hi, "histogram range must be non-empty");
}

void LinearHistogram::add(double x) {
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (!(x < hi_)) {  // also NaN, whose cast to a bin index is undefined
    ++overflow_;
    return;
  }
  const auto index = static_cast<std::size_t>(
      (x - lo_) / (hi_ - lo_) * static_cast<double>(kBinCount));
  ++bins_[std::min(index, kBinCount - 1)];
}

void LinearHistogram::merge(const LinearHistogram& other) {
  DSSLICE_REQUIRE(lo_ == other.lo_ && hi_ == other.hi_,
                  "merging histograms with different ranges");
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  for (std::size_t k = 0; k < kBinCount; ++k) {
    bins_[k] += other.bins_[k];
  }
}

void LinearHistogram::clear() {
  count_ = 0;
  underflow_ = 0;
  overflow_ = 0;
  bins_.fill(0);
}

std::uint64_t LinearHistogram::bin(std::size_t index) const {
  DSSLICE_REQUIRE(index < kBinCount, "histogram bin out of range");
  return bins_[index];
}

double LinearHistogram::bin_lower(std::size_t index) const {
  DSSLICE_REQUIRE(index < kBinCount, "histogram bin out of range");
  return lo_ + (hi_ - lo_) * static_cast<double>(index) /
                   static_cast<double>(kBinCount);
}

void LinearHistogramAccess::restore(
    LinearHistogram& h, std::uint64_t underflow, std::uint64_t overflow,
    const std::array<std::uint64_t, LinearHistogram::kBinCount>& bins) {
  h.underflow_ = underflow;
  h.overflow_ = overflow;
  h.bins_ = bins;
  h.count_ = underflow + overflow;
  for (const std::uint64_t b : bins) {
    h.count_ += b;
  }
}

void SuccessCounter::add(bool success) {
  ++trials_;
  if (success) {
    ++successes_;
  }
}

void SuccessCounter::add_many(std::uint64_t successes, std::uint64_t trials) {
  DSSLICE_REQUIRE(successes <= trials, "more successes than trials");
  successes_ += successes;
  trials_ += trials;
}

void SuccessCounter::merge(const SuccessCounter& other) {
  successes_ += other.successes_;
  trials_ += other.trials_;
}

double SuccessCounter::ratio() const {
  return trials_ == 0
             ? 0.0
             : static_cast<double>(successes_) / static_cast<double>(trials_);
}

double SuccessCounter::ci95_halfwidth() const {
  if (trials_ == 0) {
    return 0.0;
  }
  const double p = ratio();
  const double n = static_cast<double>(trials_);
  return 1.96 * std::sqrt(std::max(p * (1.0 - p), 0.0) / n);
}

}  // namespace dsslice
