/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace isw::sim {
namespace {

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator a;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.add(x);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance)
{
    Accumulator a;
    a.add(3.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, NegativeValues)
{
    Accumulator a;
    a.add(-5.0);
    a.add(5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), -5.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(TimeSeries, RecordsPoints)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    ts.record(10, 1.5);
    ts.record(20, 2.5);
    ASSERT_EQ(ts.points().size(), 2u);
    EXPECT_EQ(ts.points()[0].t, 10u);
    EXPECT_DOUBLE_EQ(ts.points()[1].v, 2.5);
    ts.clear();
    EXPECT_TRUE(ts.empty());
}

TEST(Simulation, ForkedRngStreamsAreStable)
{
    Simulation s1(99), s2(99);
    Rng a = s1.forkRng();
    Rng b = s2.forkRng();
    EXPECT_EQ(a(), b());
    // A second fork differs from the first.
    Rng c = s1.forkRng();
    EXPECT_NE(a(), c());
}

TEST(Simulation, AfterSchedulesRelativeToNow)
{
    Simulation s;
    TimeNs fired = 0;
    s.after(25, [&] { fired = s.now(); });
    s.run();
    EXPECT_EQ(fired, 25u);
}

TEST(TimeHelpers, Conversions)
{
    EXPECT_DOUBLE_EQ(toMillis(fromMillis(12.5)), 12.5);
    EXPECT_DOUBLE_EQ(toSeconds(3 * kSec), 3.0);
    EXPECT_EQ(fromSeconds(2.0), 2 * kSec);
    EXPECT_EQ(kMsec, 1000 * kUsec);
}

} // namespace
} // namespace isw::sim
