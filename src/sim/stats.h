// Measurement helpers for tests and benches: streaming summary statistics (Welford) and a
// sample container with percentiles. The paper reports means with a stddev-below-3%-of-mean
// criterion; Summary exposes exactly those quantities.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace fractos {

// Streaming mean / stddev / min / max.
class Summary {
 public:
  void add(double x);
  void add(Duration d) { add(d.to_us()); }

  size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  // stddev as a fraction of the mean; the paper's acceptance bar is < 0.03.
  double rel_stddev() const;

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores samples; supports percentiles (linear interpolation between closest ranks).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  void add(Duration d) { xs_.push_back(d.to_us()); }

  size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  double percentile(double p) const;  // p in [0, 100]
  double median() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }

  const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
};

// Fixed-boundary histogram (log2 buckets) for size/latency distributions in benches.
class Log2Histogram {
 public:
  void add(uint64_t value);
  uint64_t count() const { return total_; }
  // Bucket i counts values in [2^i, 2^(i+1)); bucket 0 also counts 0.
  uint64_t bucket(size_t i) const;
  size_t num_buckets() const { return 64; }

  // The bucket a value falls into (the inverse of the boundaries above).
  static size_t bucket_of(uint64_t value);
  // Largest value bucket i can hold: 2^(i+1) - 1 (bucket 0 holds {0, 1}).
  static uint64_t bucket_upper(size_t i);

  // Quantile estimate for q in (0, 1]: the upper bound of the bucket holding the
  // nearest-rank order statistic (rank = ceil(q * count), 1-based). The true sample at that
  // rank lies in the same bucket, so the estimate is never off by more than the bucket
  // width — the "within one bucket" guarantee the SLO reporting path relies on
  // (tests/workload_test.cc pins it against exact quantiles from raw samples).
  uint64_t quantile(double q) const;

 private:
  uint64_t buckets_[64] = {};
  uint64_t total_ = 0;
};

}  // namespace fractos

#endif  // SRC_SIM_STATS_H_
