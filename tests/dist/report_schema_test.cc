/** @file One report schema: every run of a strategy reports the same
 *  extras key set whichever optional subsystems it uses (an absent
 *  subsystem reports 0), and runSharedJobs reports the same fabric
 *  keys with or without a bounded slot pool. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "dist/multijob.hh"
#include "dist/strategy.hh"
#include "matrix_cells.hh"

namespace isw::dist {
namespace {

std::set<std::string>
keysOf(const std::map<std::string, double> &m)
{
    std::set<std::string> keys;
    for (const auto &[key, value] : m)
        keys.insert(key);
    return keys;
}

class ReportSchema : public ::testing::TestWithParam<MatrixCell>
{
};

TEST_P(ReportSchema, OptionalSubsystemsKeepTheKeySet)
{
    const StrategyKind k = strategyOf(GetParam());
    // Plain: fp32, lossless, no HA, unbounded pool.
    JobConfig plain = JobConfig::forBenchmark(rl::Algo::kPpo, k, 4);
    plain.wire_model_bytes = 0; // actual model size: fast tests
    plain.stop.max_iterations = 4;
    plain.curve_every = 4;
    // Every optional subsystem the strategy supports. HA backups need
    // the unbounded pool, so sync iSwitch's bounded pool gets its own
    // run.
    JobConfig full = plain;
    full.precision = net::Precision::kInt32;
    full.faults.extra_loss = 0.02;
    full.stop.max_sim_time = 60 * sim::kSec;
    JobConfig bounded = full;
    bounded.cluster.accel.num_slots = 4;
    full.cluster.ha.with_backup = true;

    const RunResult a = runJob(plain);
    const RunResult b = runJob(full);
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_EQ(keysOf(a.extras), keysOf(b.extras));
    // The subsystems really ran in the full run.
    EXPECT_GT(b.extras.at("fault_iid_drops"), 0.0);
    EXPECT_GT(b.extras.at("failover_heartbeats"), 0.0);
    EXPECT_EQ(a.extras.at("fault_iid_drops"), 0.0);
    EXPECT_EQ(a.extras.at("failover_heartbeats"), 0.0);
    EXPECT_EQ(a.extras.at("slot_capacity"), 0.0);
    if (k == StrategyKind::kSyncIswitch) {
        const RunResult c = runJob(bounded);
        ASSERT_TRUE(c.ok()) << c.error;
        EXPECT_EQ(keysOf(a.extras), keysOf(c.extras));
        EXPECT_EQ(c.extras.at("slot_capacity"), 4.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ReportSchema,
                         ::testing::Values(MatrixCell::kSyncPs,
                                           MatrixCell::kSyncAr,
                                           MatrixCell::kSyncIsw,
                                           MatrixCell::kAsyncPs,
                                           MatrixCell::kAsyncIsw),
                         cellName);

TEST(ReportSchemaSharing, BoundedPoolKeepsTheFabricKeySet)
{
    MultiJobConfig mc;
    JobConfig a = JobConfig::forBenchmark(rl::Algo::kPpo,
                                          StrategyKind::kSyncIswitch, 2);
    a.wire_model_bytes = 8 * core::kFloatsPerSeg * 4;
    a.stop.max_iterations = 4;
    a.curve_every = 4;
    mc.jobs = {a, a};
    const MultiJobResult unbounded = runSharedJobs(mc);
    mc.fabric.accel.num_slots = 8;
    const MultiJobResult bounded = runSharedJobs(mc);
    EXPECT_EQ(keysOf(unbounded.fabric), keysOf(bounded.fabric));
    EXPECT_EQ(unbounded.fabric.at("slot_capacity"), 0.0);
    EXPECT_EQ(bounded.fabric.at("slot_capacity"), 8.0);
    ASSERT_EQ(unbounded.jobs.size(), bounded.jobs.size());
    for (std::size_t i = 0; i < bounded.jobs.size(); ++i) {
        ASSERT_TRUE(bounded.jobs[i].ok()) << bounded.jobs[i].error;
        EXPECT_EQ(keysOf(unbounded.jobs[i].extras),
                  keysOf(bounded.jobs[i].extras));
    }
}

} // namespace
} // namespace isw::dist
