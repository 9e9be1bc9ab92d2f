// Streaming statistics helpers used by the PDES engine and the experiment
// harness: Welford mean/variance, min/max tracking, and a tiny fixed-point
// formatter for report tables.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cagvt {

/// Numerically stable streaming mean/variance (Welford).
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  /// Population (biased) standard deviation — what the paper's LVT
  /// disparity metric uses (std deviation among LVTs at a GVT round).
  double stddev_population() const {
    return n_ ? std::sqrt(m2_ / static_cast<double>(n_)) : 0.0;
  }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  void reset() { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi); out-of-range values clamp to the
/// edge buckets. Used for rollback-length and message-latency profiles.
class Histogram {
 public:
  /// `buckets == 0` is clamped to one bucket: bucket_of computes
  /// `counts_.size() - 1`, which would underflow on an empty vector.
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets == 0 ? 1 : buckets, 0) {}

  void add(double x) {
    const auto b = bucket_of(x);
    ++counts_[b];
    stat_.add(x);
  }

  std::size_t bucket_of(double x) const {
    if (x < lo_) return 0;
    if (x >= hi_) return counts_.size() - 1;
    const double frac = (x - lo_) / (hi_ - lo_);
    return std::min(counts_.size() - 1,
                    static_cast<std::size_t>(frac * static_cast<double>(counts_.size())));
  }

  std::uint64_t bucket_count(std::size_t b) const { return counts_[b]; }
  std::size_t buckets() const { return counts_.size(); }
  const RunningStat& stat() const { return stat_; }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  RunningStat stat_;
};

/// Format helpers for the experiment report tables.
std::string format_fixed(double value, int decimals);
std::string format_si(double value);  // 1234567 -> "1.23M"

}  // namespace cagvt
