/** @file Sharded-execution regression tests: multi-rack runs on the
 *  parallel engine must be byte-identical to the serial engine, and
 *  the gates that keep sharding sound must hold. */

#include <gtest/gtest.h>

#include "dist/strategy.hh"
#include "harness/runner.hh"

namespace isw::dist {
namespace {

JobConfig
treeConfig(StrategyKind k, std::size_t workers, std::uint64_t iters)
{
    JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kPpo, k, workers);
    cfg.wire_model_bytes = 0; // actual model size: fast tests
    cfg.use_tree = true;
    cfg.cluster.per_rack = 3;
    cfg.stop.max_iterations = iters;
    cfg.curve_every = 3;
    cfg.seed = 11;
    return cfg;
}

std::string
reportOf(const JobConfig &cfg)
{
    // resultToJson covers every deterministic result field (iterations,
    // simulated timing, rewards, breakdown, extras, curve) and excludes
    // the wall-clock perf block, so string equality is byte-level
    // result parity.
    return harness::resultToJson(runJob(cfg)).dump(2);
}

TEST(ShardedRun, TreeRunByteIdenticalToSerial)
{
    JobConfig serial = treeConfig(StrategyKind::kSyncIswitch, 6, 8);
    JobConfig sharded = serial;
    sharded.shard = true;
    sharded.shard_threads = 2;
    EXPECT_EQ(reportOf(serial), reportOf(sharded));
}

TEST(ShardedRun, FatTreeRunByteIdenticalToSerial)
{
    JobConfig serial = treeConfig(StrategyKind::kSyncIswitch, 8, 6);
    serial.use_tree = false;
    serial.use_fat_tree = true;
    serial.cluster.per_rack = 2;
    serial.cluster.racks_per_pod = 2; // 4 racks, 2 pods
    JobConfig sharded = serial;
    sharded.shard = true;
    EXPECT_EQ(reportOf(serial), reportOf(sharded));
}

TEST(ShardedRun, SyncPsRunByteIdenticalToSerial)
{
    // The PS host lives in rack 0's domain; its unicast fan-in/fan-out
    // crosses every rack boundary each round.
    JobConfig serial = treeConfig(StrategyKind::kSyncPs, 4, 4);
    JobConfig sharded = serial;
    sharded.shard = true;
    EXPECT_EQ(reportOf(serial), reportOf(sharded));
}

TEST(ShardedRun, ThreadCountDoesNotChangeResults)
{
    JobConfig one = treeConfig(StrategyKind::kSyncIswitch, 6, 6);
    one.shard = true;
    one.shard_threads = 1;
    JobConfig many = one;
    many.shard_threads = 3;
    JobConfig hw = one;
    hw.shard_threads = 0; // hardware concurrency
    const std::string base = reportOf(one);
    EXPECT_EQ(base, reportOf(many));
    EXPECT_EQ(base, reportOf(hw));
}

TEST(ShardedRun, ShardedRunReportsProgress)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncIswitch, 6, 8);
    cfg.shard = true;
    RunResult res = runJob(cfg);
    EXPECT_TRUE(res.error.empty()) << res.error;
    EXPECT_GE(res.iterations, 8u);
    EXPECT_GT(res.total_time, 0u);
    EXPECT_GT(res.extras.at("events_executed"), 0.0);
    EXPECT_GT(res.extras.at("packets_sealed"), 0.0);
}

TEST(ShardedRun, AsyncIswitchDeterministicAcrossThreadCounts)
{
    // Async strategies are version-bookkept via the window barrier, so
    // a sharded run must reproduce exactly across shard_threads (but
    // not necessarily match the serial engine, which sees live
    // versions rather than barrier snapshots).
    JobConfig cfg = treeConfig(StrategyKind::kAsyncIswitch, 6, 8);
    cfg.shard = true;
    cfg.shard_threads = 1;
    JobConfig many = cfg;
    many.shard_threads = 3;
    EXPECT_EQ(reportOf(cfg), reportOf(many));
}

TEST(ShardedRun, AsyncPsDeterministicAcrossThreadCounts)
{
    JobConfig cfg = treeConfig(StrategyKind::kAsyncPs, 4, 6);
    cfg.shard = true;
    cfg.shard_threads = 1;
    JobConfig many = cfg;
    many.shard_threads = 0; // hardware concurrency
    EXPECT_EQ(reportOf(cfg), reportOf(many));
}

TEST(ShardedRun, WideWindowsRunOnThePoolWithIdenticalReports)
{
    // 16 racks of 2 workers make 17 domains. Rounds put most racks in
    // one window, which reaches the pool threshold at 2 and at 4
    // threads, so slices run on real pool threads (per-domain packet
    // pools, published snapshots and barrier merges across threads),
    // and the reports must still match the one-thread run's.
    for (const StrategyKind k :
         {StrategyKind::kSyncIswitch, StrategyKind::kAsyncPs}) {
        JobConfig one = treeConfig(k, 32, 2);
        one.cluster.per_rack = 2;
        one.shard = true;
        one.shard_threads = 1;
        const RunResult base = runJob(one);
        ASSERT_TRUE(base.error.empty()) << base.error;
        EXPECT_EQ(base.perf.at("shard_windows_serial"),
                  base.perf.at("shard_windows"));
        const std::string expected = harness::resultToJson(base).dump(2);
        for (const unsigned threads : {2u, 4u}) {
            JobConfig pooled = one;
            pooled.shard_threads = threads;
            const RunResult res = runJob(pooled);
            EXPECT_LT(res.perf.at("shard_windows_serial"),
                      res.perf.at("shard_windows"))
                << threads << " threads";
            EXPECT_EQ(harness::resultToJson(res).dump(2), expected)
                << threads << " threads";
        }
    }
}

TEST(ShardedRun, LossySyncRunByteIdenticalToSerial)
{
    // Lossy sync paths use the same domain-safe probe/defer machinery
    // under both engines on a partitioned fabric, so serial and
    // sharded reports must agree byte-for-byte.
    JobConfig serial = treeConfig(StrategyKind::kSyncIswitch, 6, 6);
    serial.cluster.edge_link.loss_prob = 0.01;
    JobConfig sharded = serial;
    sharded.shard = true;
    sharded.shard_threads = 3;
    EXPECT_EQ(reportOf(serial), reportOf(sharded));
}

TEST(ShardedRun, ShardedRunReportsPerfCounters)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncIswitch, 6, 6);
    cfg.shard = true;
    RunResult res = runJob(cfg);
    EXPECT_TRUE(res.error.empty()) << res.error;
    EXPECT_GT(res.perf.at("shard_windows"), 0.0);
    EXPECT_GT(res.perf.at("shard_cross_events"), 0.0);
    EXPECT_GT(res.perf.at("shard_cross_batches"), 0.0);
    // Counters that may legitimately be zero must still be reported.
    EXPECT_NO_THROW(res.perf.at("shard_windows_serial"));
    EXPECT_NO_THROW(res.perf.at("shard_domains_skipped"));
}

TEST(ShardedRun, RejectsSingleDomainClusters)
{
    JobConfig cfg = treeConfig(StrategyKind::kSyncIswitch, 4, 4);
    cfg.use_tree = false; // star: nothing to shard
    cfg.shard = true;
    EXPECT_THROW(makeJob(cfg), std::invalid_argument);
}

} // namespace
} // namespace isw::dist
