/** @file Tests for the sync parameter server's K-shard layout. */

#include <gtest/gtest.h>

#include "dist/strategy.hh"

namespace isw::dist {
namespace {

JobConfig
shardedConfig(std::size_t shards, std::uint64_t iters,
              std::uint64_t wire = 0)
{
    JobConfig cfg = JobConfig::forBenchmark(
        rl::Algo::kA2c, StrategyKind::kSyncPs, 4);
    cfg.wire_model_bytes = wire;
    cfg.ps_shards = shards;
    cfg.stop.max_iterations = iters;
    return cfg;
}

TEST(ShardedPs, RunsWithVariousShardCounts)
{
    for (std::size_t shards : {1u, 2u, 4u}) {
        RunResult res = runJob(shardedConfig(shards, 6));
        EXPECT_GE(res.iterations, 6u) << shards << " shards";
    }
}

TEST(ShardedPs, PsShardsSetsThePsHostCount)
{
    // The paper's central server is the default; ps_shards grows the
    // same strategy to K server hosts.
    JobConfig cfg =
        JobConfig::forBenchmark(rl::Algo::kA2c, StrategyKind::kSyncPs, 4);
    EXPECT_EQ(makeJob(cfg)->cluster().ps_shards.size(), 1u);
    cfg.ps_shards = 3;
    EXPECT_EQ(makeJob(cfg)->cluster().ps_shards.size(), 3u);
}

TEST(ShardedPs, ClusterHasShardHosts)
{
    JobConfig cfg = shardedConfig(3, 1);
    auto job = makeJob(cfg);
    EXPECT_EQ(job->cluster().ps_shards.size(), 3u);
    EXPECT_EQ(job->cluster().ps, job->cluster().ps_shards[0]);
    job->run();
}

TEST(ShardedPs, OneRoundWeightsMatchPlainPs)
{
    auto one_round = [](std::size_t shards) {
        auto job = makeJob(shardedConfig(shards, 1));
        job->run();
        ml::Vec w;
        job->workerAgent(0).getWeights(w);
        return w;
    };
    const ml::Vec ps = one_round(1);
    const ml::Vec sharded = one_round(4);
    ASSERT_EQ(ps.size(), sharded.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        ASSERT_NEAR(ps[i], sharded[i], 1e-5f) << "index " << i;
}

TEST(ShardedPs, ShardingRelievesTheCentralLink)
{
    // Big model: four shard links drain the aggregate roughly in
    // parallel where the single PS link serializes it.
    const std::uint64_t wire = 4 * 1024 * 1024;
    JobConfig plain = JobConfig::forBenchmark(
        rl::Algo::kDqn, StrategyKind::kSyncPs, 4);
    plain.wire_model_bytes = wire;
    plain.stop.max_iterations = 6;
    JobConfig sharded = plain;
    sharded.ps_shards = 4;
    const RunResult rp = runJob(plain);
    const RunResult rs = runJob(sharded);
    EXPECT_LT(rs.perIterationMs(), rp.perIterationMs());
}

TEST(ShardedPs, TreeTopologyPlacesShardsAcrossRacks)
{
    // Shards land round-robin over racks (shard k in rack k % racks),
    // each in its rack's shard domain.
    JobConfig cfg = shardedConfig(3, 1);
    cfg.use_tree = true;
    cfg.cluster.per_rack = 3; // 2 racks
    auto job = makeJob(cfg);
    const Cluster &c = job->cluster();
    ASSERT_EQ(c.ps_shards.size(), 3u);
    EXPECT_EQ(c.ps_shards[0]->domain(), 1u);
    EXPECT_EQ(c.ps_shards[1]->domain(), 2u);
    EXPECT_EQ(c.ps_shards[2]->domain(), 1u); // wraps
}

} // namespace
} // namespace isw::dist
