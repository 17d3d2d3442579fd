/** @file Chaos matrix x sharded engine: lossy and faulted runs on a
 *  partitioned multi-rack fabric must execute on the parallel engine,
 *  reproduce exactly across shard_threads, and — for synchronous
 *  strategies — match the serial engine byte-for-byte (both engines
 *  share the domain-safe probe/defer recovery path on partitioned
 *  fabrics, so reports cannot diverge). */

#include <gtest/gtest.h>

#include "dist/strategy.hh"
#include "harness/runner.hh"
#include "matrix_cells.hh"

namespace isw::dist {
namespace {

JobConfig
shardedChaosConfig(StrategyKind k, std::size_t workers = 6,
                   std::uint64_t iters = 6)
{
    JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kPpo, k, workers);
    cfg.wire_model_bytes = 0; // actual model size: fast tests
    cfg.use_tree = true;
    cfg.cluster.per_rack = 3;
    cfg.stop.max_iterations = iters;
    cfg.stop.max_sim_time = 120 * sim::kSec; // fault-recovery safety net
    cfg.curve_every = 3;
    cfg.seed = 23;
    return cfg;
}

JobConfig
shardedChaosConfig(MatrixCell c)
{
    JobConfig cfg = shardedChaosConfig(strategyOf(c));
    cfg.ps_shards = psShardsOf(c);
    return cfg;
}

std::string
reportOf(const JobConfig &cfg)
{
    // resultToJson covers every deterministic result field and excludes
    // the wall-clock perf block: string equality is result parity.
    return harness::resultToJson(runJob(cfg)).dump(2);
}

void
addBurstLoss(JobConfig &cfg)
{
    cfg.faults.ge.p_good_to_bad = 0.02;
    cfg.faults.ge.p_bad_to_good = 0.25;
    cfg.faults.ge.loss_bad = 0.8;
}

void
addCrash(JobConfig &cfg)
{
    // Blackout worker 2's edge link mid-training; silent partition the
    // retransmission layer must ride out on its own.
    cfg.faults.crashes.push_back(
        net::WorkerCrash{2, 20 * sim::kMsec, 60 * sim::kMsec, false});
}

class ShardedChaosMatrix : public ::testing::TestWithParam<MatrixCell>
{
  protected:
    /** Sharded faulted run: completes, deterministic across thread
     *  counts, and byte-identical to serial for sync strategies. */
    void
    checkFaultedRun(const JobConfig &faulty)
    {
        JobConfig one = faulty;
        one.shard = true;
        one.shard_threads = 1;
        JobConfig two = one;
        two.shard_threads = 2;
        JobConfig hw = one;
        hw.shard_threads = 0; // hardware concurrency

        const std::string base = reportOf(one);
        EXPECT_EQ(base, reportOf(two));
        EXPECT_EQ(base, reportOf(hw));
        if (!isAsyncStrategy(faulty.strategy)) {
            EXPECT_EQ(base, reportOf(faulty)); // serial engine
        }
        const RunResult res = runJob(one);
        ASSERT_TRUE(res.ok()) << res.error;
        EXPECT_GE(res.iterations, faulty.stop.max_iterations);
    }
};

TEST_P(ShardedChaosMatrix, SurvivesIidLossSharded)
{
    JobConfig cfg = shardedChaosConfig(GetParam());
    cfg.faults.extra_loss = 0.01;
    checkFaultedRun(cfg);
}

TEST_P(ShardedChaosMatrix, SurvivesBurstLossSharded)
{
    JobConfig cfg = shardedChaosConfig(GetParam());
    addBurstLoss(cfg);
    checkFaultedRun(cfg);
}

TEST_P(ShardedChaosMatrix, SurvivesCrashAndRejoinSharded)
{
    JobConfig cfg = shardedChaosConfig(GetParam());
    addCrash(cfg);
    checkFaultedRun(cfg);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ShardedChaosMatrix, allCells(),
                         cellName);

/** Switch-crash failover on the tree fabric (DESIGN.md §16): the core
 *  switch fail-stops mid-training, ToRs re-home to the backup core,
 *  and the run finishes. Sync runs must stay serial/sharded
 *  byte-identical *through* the failover and land on the lossless
 *  weights; async runs must stay live and thread-deterministic. */
class ShardedFailoverMatrix : public ::testing::TestWithParam<StrategyKind>
{
};

TEST_P(ShardedFailoverMatrix, CoreSwitchCrashFailsOverSharded)
{
    const JobConfig cfg = shardedChaosConfig(GetParam());
    // Lossless no-HA serial baseline anchors the weight contract.
    auto basejob = makeJob(cfg);
    const RunResult baseres = basejob->run();
    ASSERT_TRUE(baseres.ok()) << baseres.error;

    JobConfig crashy = cfg;
    crashy.cluster.ha.with_backup = true;
    crashy.faults.switch_crashes.push_back(
        net::SwitchCrash{baseres.total_time * 3 / 10, 0});

    JobConfig one = crashy;
    one.shard = true;
    one.shard_threads = 1;
    JobConfig two = one;
    two.shard_threads = 2;
    const std::string base = reportOf(one);
    EXPECT_EQ(base, reportOf(two));
    if (!isAsyncStrategy(crashy.strategy)) {
        EXPECT_EQ(base, reportOf(crashy)); // serial engine parity
    }

    auto job = makeJob(one);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, crashy.stop.max_iterations);
    ASSERT_TRUE(res.extras.count("failover_events"));
    EXPECT_EQ(res.extras.at("failover_events"), 1.0);
    EXPECT_GT(res.extras.at("failover_beats_missed"), 0.0);
    // Only the iSwitch plane replicates aggregation state; for PS
    // strategies the backup is pure routing + membership shadow.
    if (crashy.strategy == StrategyKind::kSyncIswitch ||
        crashy.strategy == StrategyKind::kAsyncIswitch)
        EXPECT_GT(res.extras.at("failover_repl_frames"), 0.0);
    EXPECT_GT(res.extras.at("fault_switch_drops"), 0.0);
    if (isAsyncStrategy(crashy.strategy))
        return;
    EXPECT_EQ(res.iterations, baseres.iterations);
    ml::Vec bw, w;
    basejob->workerAgent(0).getWeights(bw);
    job->workerAgent(0).getWeights(w);
    ASSERT_EQ(w.size(), bw.size());
    const float tol =
        crashy.strategy == StrategyKind::kSyncIswitch ? 1e-4f : 1e-6f;
    for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_NEAR(w[i], bw[i], tol) << "weight " << i;
}

INSTANTIATE_TEST_SUITE_P(
    CoreStrategies, ShardedFailoverMatrix,
    ::testing::Values(StrategyKind::kSyncPs, StrategyKind::kSyncIswitch,
                      StrategyKind::kAsyncIswitch),
    [](const auto &info) {
        switch (info.param) {
          case StrategyKind::kSyncPs: return "SyncPs";
          case StrategyKind::kSyncIswitch: return "SyncIsw";
          case StrategyKind::kAsyncIswitch: return "AsyncIsw";
          default: return "?";
        }
    });

TEST(ShardedChaos, MultiShardPsPlacesShardsAcrossRacks)
{
    // Tree builders spread PS shards round-robin over racks: shard k
    // lives in rack k % racks (domain k % racks + 1).
    JobConfig cfg = shardedChaosConfig(StrategyKind::kSyncPs, 6, 4);
    cfg.ps_shards = 3;
    auto job = makeJob(cfg);
    const Cluster &c = job->cluster();
    ASSERT_EQ(c.ps_shards.size(), 3u);
    EXPECT_EQ(c.ps_shards[0]->domain(), 1u);
    EXPECT_EQ(c.ps_shards[1]->domain(), 2u);
    EXPECT_EQ(c.ps_shards[2]->domain(), 1u); // wraps: 2 racks
}

TEST(ShardedChaos, MultiShardPsLossyShardedMatchesSerial)
{
    JobConfig serial = shardedChaosConfig(StrategyKind::kSyncPs, 6, 4);
    serial.ps_shards = 3;
    serial.faults.extra_loss = 0.01;
    JobConfig sharded = serial;
    sharded.shard = true;
    sharded.shard_threads = 3;
    EXPECT_EQ(reportOf(serial), reportOf(sharded));
}

TEST(ShardedChaos, AnnouncedCrashLeaveJoinRunsInHomeDomain)
{
    // announce=true drives real Leave/Join control frames from the
    // crashed worker's host; on the sharded engine those must originate
    // in the worker's home domain and still recompute auto-H.
    JobConfig cfg = shardedChaosConfig(StrategyKind::kAsyncIswitch, 6, 12);
    cfg.faults.crashes.push_back(
        net::WorkerCrash{3, 20 * sim::kMsec, 60 * sim::kMsec, true});
    cfg.shard = true;
    cfg.shard_threads = 2;
    const RunResult res = runJob(cfg);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, 12u);
}

} // namespace
} // namespace isw::dist
