/** @file Compute-profile calibration tests. */

#include <gtest/gtest.h>

#include "dist/timing.hh"

namespace isw::dist {
namespace {

TEST(Timing, ComponentNamesMatchPaperLegend)
{
    EXPECT_STREQ(componentName(IterComponent::kGradAggregation),
                 "Grad Aggregation");
    EXPECT_STREQ(componentName(IterComponent::kAgentAction), "Agent Action");
    EXPECT_STREQ(componentName(IterComponent::kOthers), "Others");
}

TEST(Timing, LgcComponentsExcludeAggAndUpdate)
{
    EXPECT_TRUE(isLgcComponent(IterComponent::kForwardPass));
    EXPECT_TRUE(isLgcComponent(IterComponent::kBufferSampling));
    EXPECT_FALSE(isLgcComponent(IterComponent::kGradAggregation));
    EXPECT_FALSE(isLgcComponent(IterComponent::kWeightUpdate));
    EXPECT_FALSE(isLgcComponent(IterComponent::kOthers));
}

TEST(Timing, ProfilesExistForAllAlgorithms)
{
    for (auto algo : {rl::Algo::kDqn, rl::Algo::kA2c, rl::Algo::kPpo,
                      rl::Algo::kDdpg}) {
        const ComputeProfile p = profileFor(algo);
        EXPECT_GT(p.lgcMean(), 0u) << rl::algoName(algo);
    }
}

TEST(Timing, DqnLocalComputeMatchesCalibration)
{
    // Table 4: 81.6 ms/iter x (1 - 0.832 agg fraction) ~= 13.7 ms of
    // local work; LGC is that minus weight update and "others".
    const ComputeProfile p = profileFor(rl::Algo::kDqn);
    EXPECT_NEAR(sim::toMillis(p.lgcMean()), 12.4, 0.2);
}

TEST(Timing, SampleIsExactWithoutJitter)
{
    ComputeProfile p = profileFor(rl::Algo::kPpo);
    p.jitter_cv = 0.0;
    sim::Rng rng(1);
    EXPECT_EQ(p.sample(IterComponent::kForwardPass, rng),
              p.mean[static_cast<std::size_t>(IterComponent::kForwardPass)]);
}

TEST(Timing, SampleJitterCentersOnMean)
{
    ComputeProfile p = profileFor(rl::Algo::kDdpg);
    sim::Rng rng(2);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(
            p.sample(IterComponent::kEnvironReact, rng));
    const double mean = static_cast<double>(
        p.mean[static_cast<std::size_t>(IterComponent::kEnvironReact)]);
    EXPECT_NEAR(sum / n / mean, 1.0, 0.01);
}

TEST(Timing, ZeroMeanComponentSamplesZero)
{
    ComputeProfile p{};
    sim::Rng rng(3);
    EXPECT_EQ(p.sample(IterComponent::kGpuCopy, rng), 0u);
}

TEST(Timing, MujocoEnvsCostMoreThanAtariPerStep)
{
    // The calibration encodes that simulated-physics environments are
    // pricier per interaction than Atari-style ones, relative to their
    // iteration budget.
    const auto ppo = profileFor(rl::Algo::kPpo);
    const auto er =
        static_cast<std::size_t>(IterComponent::kEnvironReact);
    EXPECT_GT(static_cast<double>(ppo.mean[er]) /
                  static_cast<double>(ppo.lgcMean()),
              0.3);
}

} // namespace
} // namespace isw::dist
