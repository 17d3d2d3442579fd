/** @file Strategy tests: every strategy runs, the sync strategies are
 *  mathematically equivalent, async respects staleness bounds, and
 *  loss recovery restores progress. */

#include <gtest/gtest.h>

#include <cstring>

#include "dist/iswitch_async.hh"
#include "dist/strategy.hh"

namespace isw::dist {
namespace {

JobConfig
quickConfig(rl::Algo algo, StrategyKind k, std::uint64_t iters = 12)
{
    JobConfig cfg = JobConfig::forBenchmark(algo, k, 4);
    cfg.wire_model_bytes = 0; // actual model size: fast tests
    cfg.stop.max_iterations = iters;
    cfg.curve_every = 4;
    return cfg;
}

TEST(StrategyName, CoversAllKinds)
{
    EXPECT_STREQ(strategyName(StrategyKind::kSyncPs), "PS");
    EXPECT_STREQ(strategyName(StrategyKind::kSyncAllReduce), "AR");
    EXPECT_STREQ(strategyName(StrategyKind::kSyncIswitch), "iSW");
    EXPECT_STREQ(strategyName(StrategyKind::kAsyncPs), "Async PS");
    EXPECT_STREQ(strategyName(StrategyKind::kAsyncIswitch), "Async iSW");
    EXPECT_FALSE(isAsyncStrategy(StrategyKind::kSyncPs));
    EXPECT_TRUE(isAsyncStrategy(StrategyKind::kAsyncIswitch));
}

/** Parameterized over all five strategies: basic liveness. */
class EveryStrategy : public ::testing::TestWithParam<StrategyKind>
{
};

TEST_P(EveryStrategy, RunsToIterationCap)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, GetParam(), 10);
    RunResult res = runJob(cfg);
    EXPECT_GE(res.iterations, 10u);
    EXPECT_GT(res.total_time, 0u);
    EXPECT_GT(res.perIterationMs(), 0.0);
    EXPECT_FALSE(res.reached_target);
}

TEST_P(EveryStrategy, ProducesRewardCurve)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, GetParam(), 12);
    RunResult res = runJob(cfg);
    EXPECT_GE(res.reward_curve.points().size(), 2u);
    // Curve timestamps are monotonic.
    sim::TimeNs prev = 0;
    for (const auto &p : res.reward_curve.points()) {
        EXPECT_GE(p.t, prev);
        prev = p.t;
    }
}

TEST_P(EveryStrategy, BreakdownChargesLocalCompute)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, GetParam(), 8);
    RunResult res = runJob(cfg);
    EXPECT_GT(res.breakdown.meanMs(IterComponent::kForwardPass), 0.0);
    EXPECT_GT(res.breakdown.meanMs(IterComponent::kEnvironReact), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, EveryStrategy,
    ::testing::Values(StrategyKind::kSyncPs, StrategyKind::kSyncAllReduce,
                      StrategyKind::kSyncIswitch, StrategyKind::kAsyncPs,
                      StrategyKind::kAsyncIswitch),
    [](const auto &info) {
        switch (info.param) {
          case StrategyKind::kSyncPs: return "SyncPs";
          case StrategyKind::kSyncAllReduce: return "SyncAr";
          case StrategyKind::kSyncIswitch: return "SyncIsw";
          case StrategyKind::kAsyncPs: return "AsyncPs";
          case StrategyKind::kAsyncIswitch: return "AsyncIsw";
        }
        return "?";
    });

/**
 * The paper's Table 4 observation: all three synchronous strategies
 * perform the same computation. Identically seeded single rounds must
 * produce the same post-update weights up to floating-point
 * reassociation (the strategies sum contributions in different
 * orders); beyond one round, reassociation noise can flip sampled
 * actions, so weight equality is the right invariant to test.
 */
TEST(SyncEquivalence, OneRoundWeightsMatchAcrossStrategies)
{
    auto weights_after_one_round = [](StrategyKind k) {
        JobConfig cfg = quickConfig(rl::Algo::kA2c, k, 1);
        auto job = makeJob(cfg);
        job->run();
        ml::Vec w;
        job->workerAgent(0).getWeights(w);
        return w;
    };
    const ml::Vec ps = weights_after_one_round(StrategyKind::kSyncPs);
    const ml::Vec ar = weights_after_one_round(StrategyKind::kSyncAllReduce);
    const ml::Vec isw = weights_after_one_round(StrategyKind::kSyncIswitch);
    ASSERT_EQ(ps.size(), isw.size());
    ASSERT_EQ(ar.size(), isw.size());
    for (std::size_t i = 0; i < isw.size(); ++i) {
        ASSERT_NEAR(ps[i], isw[i], 1e-5f) << "PS vs iSW at " << i;
        ASSERT_NEAR(ar[i], isw[i], 1e-5f) << "AR vs iSW at " << i;
    }
}

TEST(SyncEquivalence, IterationCountsAlwaysAgree)
{
    RunResult ps =
        runJob(quickConfig(rl::Algo::kA2c, StrategyKind::kSyncPs, 20));
    RunResult ar =
        runJob(quickConfig(rl::Algo::kA2c, StrategyKind::kSyncAllReduce, 20));
    RunResult isw =
        runJob(quickConfig(rl::Algo::kA2c, StrategyKind::kSyncIswitch, 20));
    EXPECT_EQ(ps.iterations, ar.iterations);
    EXPECT_EQ(ps.iterations, isw.iterations);
}

TEST(SyncEquivalence, IswitchFasterThanPsOnLargeModels)
{
    JobConfig ps = quickConfig(rl::Algo::kDqn, StrategyKind::kSyncPs, 8);
    JobConfig isw =
        quickConfig(rl::Algo::kDqn, StrategyKind::kSyncIswitch, 8);
    // Paper-scale wire (scaled 1/4 to keep the test quick).
    ps.wire_model_bytes = isw.wire_model_bytes =
        static_cast<std::uint64_t>(6.41 * 1024 * 1024 / 4);
    RunResult rps = runJob(ps);
    RunResult risw = runJob(isw);
    EXPECT_LT(risw.perIterationMs(), rps.perIterationMs());
    EXPECT_LT(risw.breakdown.meanMs(IterComponent::kGradAggregation),
              rps.breakdown.meanMs(IterComponent::kGradAggregation));
}

TEST(SyncIswitch, TargetRewardStopsEarly)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, StrategyKind::kSyncIswitch,
                                500);
    cfg.stop.target_reward = -1e9; // trivially satisfied
    cfg.stop.min_episodes = 1;
    RunResult res = runJob(cfg);
    EXPECT_TRUE(res.reached_target);
    EXPECT_LT(res.iterations, 500u);
}

TEST(SyncIswitch, SurvivesPacketLossViaHelp)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, StrategyKind::kSyncIswitch,
                                6);
    cfg.cluster.edge_link.loss_prob = 0.02; // 2% loss on every edge
    cfg.seed = 5;
    RunResult res = runJob(cfg);
    // Despite losses, all rounds completed via Help-based recovery.
    EXPECT_GE(res.iterations, 6u);
}

TEST(SyncIswitch, HierarchicalTreeMatchesStarWeights)
{
    // Hierarchical aggregation changes only the summation tree, so a
    // single round's post-update weights must match the flat switch
    // up to floating-point reassociation.
    auto one_round = [](bool tree) {
        JobConfig cfg =
            quickConfig(rl::Algo::kA2c, StrategyKind::kSyncIswitch, 1);
        cfg.num_workers = 6;
        cfg.use_tree = tree;
        cfg.cluster.per_rack = 3;
        auto job = makeJob(cfg);
        job->run();
        ml::Vec w;
        job->workerAgent(0).getWeights(w);
        return w;
    };
    const ml::Vec star = one_round(false);
    const ml::Vec tree = one_round(true);
    ASSERT_EQ(star.size(), tree.size());
    for (std::size_t i = 0; i < star.size(); ++i)
        ASSERT_NEAR(star[i], tree[i], 1e-5f) << "index " << i;
}

TEST(SyncAllReduce, EveryWorkerAgreesPast501Workers)
{
    // A ring of N workers runs steps 0..2N-3, so from 502 workers up a
    // round reaches step 1000. Its transfer id must not decode as any
    // other (round, step): a receiver would size the assembler for the
    // wrong chunk and fold too few or too many floats. One round must
    // leave every replica bit-identical to worker 0.
    JobConfig cfg =
        quickConfig(rl::Algo::kPpo, StrategyKind::kSyncAllReduce, 1);
    cfg.num_workers = 502;
    cfg.use_tree = true;
    cfg.cluster.per_rack = 126; // 4 racks
    auto job = makeJob(cfg);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    ml::Vec w0;
    job->workerAgent(0).getWeights(w0);
    std::size_t differing = 0;
    for (std::size_t i = 1; i < cfg.num_workers; ++i) {
        ml::Vec w;
        job->workerAgent(i).getWeights(w);
        if (w.size() != w0.size() ||
            std::memcmp(w.data(), w0.data(), w.size() * sizeof(float)) != 0)
            ++differing;
    }
    EXPECT_EQ(differing, 0u);
}

TEST(AsyncIswitch, StalenessBoundSkipsStaleGradients)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, StrategyKind::kAsyncIswitch,
                                40);
    cfg.staleness_bound = 0; // brutally tight: skips must happen
    auto job = std::make_unique<AsyncIswitchJob>(cfg);
    AsyncIswitchJob *raw = job.get();
    RunResult res = job->run();
    EXPECT_GE(res.iterations, 40u);
    EXPECT_GT(raw->gradientsCommitted(), 0u);
    // With S=0 and a pipelined LGC loop, some gradients get dropped.
    EXPECT_GT(raw->gradientsSkipped(), 0u);
}

TEST(AsyncIswitch, RelaxedBoundSkipsNothingWhenAggregationKeepsUp)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, StrategyKind::kAsyncIswitch,
                                30);
    cfg.staleness_bound = 100;
    auto job = std::make_unique<AsyncIswitchJob>(cfg);
    AsyncIswitchJob *raw = job.get();
    job->run();
    EXPECT_EQ(raw->gradientsSkipped(), 0u);
}

TEST(AsyncIswitch, SetHThresholdShortensUpdateInterval)
{
    // The SetH knob (Table 2): H=2 completes a broadcast after two
    // contributions, so updates come roughly twice as often as H=4.
    auto interval = [](std::uint32_t h) {
        JobConfig cfg =
            quickConfig(rl::Algo::kPpo, StrategyKind::kAsyncIswitch, 60);
        cfg.agg_threshold = h;
        return runJob(cfg).perIterationMs();
    };
    const double h4 = interval(4);
    const double h2 = interval(2);
    EXPECT_LT(h2, h4 * 0.7);
}

TEST(AsyncIswitch, SetHPinsSwitchThreshold)
{
    JobConfig cfg =
        quickConfig(rl::Algo::kPpo, StrategyKind::kAsyncIswitch, 5);
    cfg.agg_threshold = 2;
    auto job = makeJob(cfg);
    job->run();
    EXPECT_EQ(job->cluster().root->accelerator().threshold(), 2u);
}

TEST(AsyncPs, ServerCountsIterations)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, StrategyKind::kAsyncPs, 20);
    RunResult res = runJob(cfg);
    EXPECT_GE(res.iterations, 20u);
    // Async PS achieves a shorter update interval than one worker's
    // LGC (multiple workers feed one server).
    EXPECT_LT(res.perIterationMs(),
              sim::toMillis(cfg.profile.lgcMean()));
}

TEST(Jobs, ZeroWorkersRejected)
{
    JobConfig cfg = quickConfig(rl::Algo::kPpo, StrategyKind::kSyncPs, 1);
    cfg.num_workers = 0;
    EXPECT_THROW(runJob(cfg), std::invalid_argument);
}

TEST(Jobs, AllReduceNeedsTwoWorkers)
{
    JobConfig cfg =
        quickConfig(rl::Algo::kPpo, StrategyKind::kSyncAllReduce, 1);
    cfg.num_workers = 1;
    EXPECT_THROW(runJob(cfg), std::invalid_argument);
}

TEST(Jobs, ForBenchmarkPullsPaperWireSizes)
{
    const JobConfig cfg =
        JobConfig::forBenchmark(rl::Algo::kDqn, StrategyKind::kSyncPs);
    EXPECT_NEAR(cfg.wire_model_bytes / (1024.0 * 1024.0), 6.41, 0.01);
    EXPECT_EQ(cfg.algo, rl::Algo::kDqn);
}

TEST(Jobs, SeedChangesOutcome)
{
    JobConfig a = quickConfig(rl::Algo::kA2c, StrategyKind::kSyncIswitch, 10);
    JobConfig b = a;
    b.seed = 999;
    RunResult ra = runJob(a);
    RunResult rb = runJob(b);
    // Different seeds explore differently (total time jitters too).
    EXPECT_NE(ra.total_time, rb.total_time);
}

TEST(Jobs, DeterministicForEqualSeeds)
{
    JobConfig cfg = quickConfig(rl::Algo::kA2c, StrategyKind::kSyncIswitch,
                                10);
    RunResult a = runJob(cfg);
    RunResult b = runJob(cfg);
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.final_avg_reward, b.final_avg_reward);
}

} // namespace
} // namespace isw::dist
