/**
 * @file
 * Lightweight statistics primitives: value accumulators (Welford
 * mean/variance) and (time, value) series such as reward curves.
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
