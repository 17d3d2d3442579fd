#include "sim/stats.hh"

#include <cmath>

namespace isw::sim {

void
Accumulator::add(double x)
{
    ++count_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

} // namespace isw::sim
