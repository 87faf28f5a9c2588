// Streaming statistics used by the Monitor and the workload QoS trackers:
// running mean/variance (Welford) and exact quantile estimation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/assert.hpp"

namespace gs {

/// Welford running mean / variance / extrema.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * double(n_); }

  /// Raw Welford accumulators, for checkpoint/restore (mean()/min()/max()
  /// mask the n == 0 sentinels, so round-tripping needs the raw fields).
  [[nodiscard]] double raw_mean() const { return mean_; }
  [[nodiscard]] double raw_m2() const { return m2_; }
  [[nodiscard]] double raw_min() const { return min_; }
  [[nodiscard]] double raw_max() const { return max_; }

  void restore(std::size_t n, double mean, double m2, double mn, double mx) {
    n_ = n;
    mean_ = mean;
    m2_ = m2;
    min_ = mn;
    max_ = mx;
  }

  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto n = double(n_ + o.n_);
    m2_ += o.m2_ + delta * delta * double(n_) * double(o.n_) / n;
    mean_ += delta * double(o.n_) / n;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact quantile of an ascending-sorted sample: linear interpolation
/// between order statistics. Shared by QuantileReservoir and the DES
/// latency scratch so both produce bit-identical values for the same
/// sample.
[[nodiscard]] inline double quantile_sorted(const double* data, std::size_t n,
                                            double q) {
  GS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  GS_REQUIRE(n > 0, "quantile of empty sample");
  if (n == 1) return data[0];
  const double pos = q * double(n - 1);
  const auto lo = std::size_t(pos);
  const double frac = pos - double(lo);
  if (lo + 1 >= n) return data[n - 1];
  return data[lo] * (1.0 - frac) + data[lo + 1] * frac;
}

/// Exact quantiles over a stored sample (sorts lazily on query).
class QuantileReservoir {
 public:
  void add(double x) {
    data_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// q in [0,1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) {
    GS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
    GS_REQUIRE(!data_.empty(), "quantile of empty reservoir");
    if (!sorted_) {
      std::sort(data_.begin(), data_.end());
      sorted_ = true;
    }
    return quantile_sorted(data_.data(), data_.size(), q);
  }

  /// clear() keeps the backing store, so a reservoir reused across DES
  /// epochs reaches a steady state where add() never allocates.
  void clear() {
    data_.clear();
    sorted_ = false;
  }

  void reserve(std::size_t n) { data_.reserve(n); }

 private:
  std::vector<double> data_;
  bool sorted_ = false;
};

}  // namespace gs
