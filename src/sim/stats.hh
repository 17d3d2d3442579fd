/**
 * @file
 * Lightweight statistics primitives: counters, value accumulators
 * (Welford mean/variance), fixed-bin histograms, and (time, value)
 * series such as reward curves.
 */

#ifndef ISW_SIM_STATS_HH
#define ISW_SIM_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hh"

namespace isw::sim {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Streaming accumulator: count, sum, min, max, mean, variance. */
class Accumulator
{
  public:
    void add(double x);

    std::size_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Unbiased sample variance; 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    void reset() { *this = Accumulator(); }

  private:
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width-bin histogram over [lo, hi) with under/overflow bins. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);
    std::size_t count() const { return count_; }
    std::size_t bin(std::size_t i) const { return bins_.at(i); }
    std::size_t numBins() const { return bins_.size(); }
    std::size_t underflow() const { return underflow_; }
    std::size_t overflow() const { return overflow_; }
    /** Approximate quantile (linear within the containing bin). */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::size_t> bins_;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
    std::size_t count_ = 0;
};

/** A recorded (simulated time, value) series, e.g. a reward curve. */
class TimeSeries
{
  public:
    struct Point
    {
        TimeNs t;
        double v;
    };

    void record(TimeNs t, double v) { points_.push_back({t, v}); }
    const std::vector<Point> &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    void clear() { points_.clear(); }

  private:
    std::vector<Point> points_;
};

} // namespace isw::sim

#endif // ISW_SIM_STATS_HH
