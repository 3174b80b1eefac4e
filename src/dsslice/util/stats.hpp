// Small statistics helpers used by the evaluation framework and benches.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dsslice {

/// Complete internal state of a RunningStats accumulator — exposed so a
/// checkpoint can persist an accumulator and restore it *bit-exactly*
/// (resume-after-interrupt must reproduce the uninterrupted aggregates to
/// the last bit, so lossy decimal round-trips are not an option; the sweep
/// checkpoint stores these doubles as raw bit patterns).
struct RunningStatsState {
  std::size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Streaming univariate accumulator (Welford's algorithm) — O(1) memory,
/// numerically stable mean/variance, suitable for millions of samples.
class RunningStats {
 public:
  void add(double x);
  /// Merge another accumulator into this one (parallel reduction support).
  void merge(const RunningStats& other);

  /// Snapshot of the full internal state (see RunningStatsState).
  RunningStatsState state() const;
  /// Reconstructs an accumulator from a snapshot; the result behaves
  /// bit-identically to the accumulator the snapshot was taken from.
  static RunningStats from_state(const RunningStatsState& state);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }
  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch helpers over a sample vector.
double mean_of(const std::vector<double>& xs);
double stddev_of(const std::vector<double>& xs);
/// Linear-interpolated percentile, p in [0, 100]. Sorts a copy.
double percentile_of(std::vector<double> xs, double p);

/// Fixed-footprint logarithmic histogram over non-negative integer samples
/// (built for nanosecond durations; used by the obs/ metrics registry).
/// Buckets follow a floor(log2) octave split with 4 sub-buckets per octave
/// (≤ 25% relative width), so add() is a handful of bit operations, merge()
/// is a vector add, and percentiles are deterministic regardless of the
/// order samples arrived in — exactly what a multi-threaded aggregation
/// needs to report stable p50/p95/p99.
class LogHistogram {
 public:
  static constexpr std::size_t kBucketCount = 256;

  void add(std::uint64_t x) {
    ++buckets_[bucket_of(x)];
    ++count_;
  }
  void merge(const LogHistogram& other);
  void clear();

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Linear-interpolated percentile estimate, p in [0, 100]. The result is
  /// exact to within the bucket's ≤ 25% relative width.
  double percentile(double p) const;

  /// Bucket index of a sample: x < 4 maps to bucket x, larger samples to
  /// octave · 4 + the two bits after the leading one.
  static std::size_t bucket_of(std::uint64_t x) {
    if (x < 4) {
      return static_cast<std::size_t>(x);
    }
    const int b = static_cast<int>(std::bit_width(x)) - 1;
    const auto sub = static_cast<std::size_t>((x >> (b - 2)) & 3);
    return static_cast<std::size_t>(b) * 4 + sub;
  }
  /// Inclusive lower / exclusive upper sample bound of a bucket.
  static double bucket_lower(std::size_t index);
  static double bucket_upper(std::size_t index);

 private:
  std::uint64_t count_ = 0;
  std::array<std::uint32_t, kBucketCount> buckets_{};
};

/// Fixed-bin linear histogram over a closed value range, with one underflow
/// and one overflow bin — the shape behind the sweep engine's laxity
/// distribution. Unlike LogHistogram it accepts negative samples (laxity
/// goes negative exactly when a window is infeasible, which is the
/// interesting tail). add() is a subtraction, a multiply and two clamps;
/// merge() is a vector add, so per-shard histograms fold deterministically
/// regardless of completion order.
class LinearHistogram {
 public:
  static constexpr std::size_t kBinCount = 64;

  /// Histogram over [lo, hi) split into kBinCount equal bins. Samples below
  /// lo land in underflow(), samples at or above hi — and NaN — in
  /// overflow().
  LinearHistogram(double lo, double hi);
  /// Default range for min-laxity distributions: [-200, 440) in time units
  /// (10-unit bins around the paper's c_mean = 20 workloads).
  LinearHistogram() : LinearHistogram(-200.0, 440.0) {}

  void add(double x);
  /// Merges a histogram with the same range (enforced).
  void merge(const LinearHistogram& other);
  void clear();

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t bin(std::size_t index) const;
  /// Inclusive lower edge of a bin.
  double bin_lower(std::size_t index) const;

 private:
  double lo_;
  double hi_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::array<std::uint64_t, kBinCount> bins_{};

  friend struct LinearHistogramAccess;
};

/// Checkpoint-side backdoor: lets the sweep checkpoint restore a
/// histogram's raw counters without widening the public interface.
struct LinearHistogramAccess {
  static void restore(LinearHistogram& h, std::uint64_t underflow,
                      std::uint64_t overflow,
                      const std::array<std::uint64_t,
                                       LinearHistogram::kBinCount>& bins);
};

/// Success-ratio counter: successes over trials with a binomial CI.
class SuccessCounter {
 public:
  void add(bool success);
  void add_many(std::uint64_t successes, std::uint64_t trials);
  void merge(const SuccessCounter& other);

  std::uint64_t successes() const { return successes_; }
  std::uint64_t trials() const { return trials_; }
  /// Successes / trials; 0 when no trials were recorded.
  double ratio() const;
  /// Half-width of the Wald 95% binomial confidence interval.
  double ci95_halfwidth() const;

 private:
  std::uint64_t successes_ = 0;
  std::uint64_t trials_ = 0;
};

}  // namespace dsslice
