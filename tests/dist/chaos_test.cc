/** @file Chaos matrix: every training strategy must survive iid loss,
 *  Gilbert–Elliott bursts, and a mid-training worker crash + rejoin.
 *  Synchronous strategies must additionally converge to the *same*
 *  final weights as a lossless run (recovery is exact, not lossy);
 *  asynchronous strategies must stay live and finish. Also covers the
 *  announced-churn path (Leave/Join + auto-H) and the watchdog/stall
 *  diagnostics for unprotected runs. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dist/strategy.hh"
#include "harness/experiment.hh"
#include "matrix_cells.hh"

namespace isw::dist {
namespace {

JobConfig
chaosConfig(StrategyKind k, std::uint64_t iters = 6)
{
    JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kPpo, k, 4);
    cfg.wire_model_bytes = 0; // actual model size: fast tests
    cfg.stop.max_iterations = iters;
    cfg.curve_every = 4;
    return cfg;
}

JobConfig
chaosConfig(MatrixCell c)
{
    JobConfig cfg = chaosConfig(strategyOf(c));
    cfg.ps_shards = psShardsOf(c);
    return cfg;
}

struct Baseline
{
    ml::Vec weights;
    std::uint64_t iterations = 0;
    sim::TimeNs total_time = 0;
};

Baseline
losslessBaseline(const JobConfig &cfg)
{
    auto job = makeJob(cfg);
    const RunResult res = job->run();
    EXPECT_TRUE(res.ok()) << res.error;
    Baseline base;
    job->workerAgent(0).getWeights(base.weights);
    base.iterations = res.iterations;
    base.total_time = res.total_time;
    return base;
}

/** Recoveries counted across the six latency-histogram buckets. */
double
recoveryHistTotal(const RunResult &res)
{
    double n = 0.0;
    for (const char *key :
         {"recovery_hist_lt1ms", "recovery_hist_lt4ms",
          "recovery_hist_lt16ms", "recovery_hist_lt64ms",
          "recovery_hist_lt256ms", "recovery_hist_ge256ms"})
        n += res.extras.at(key);
    return n;
}

/** Run @p cfg and require full completion despite its faults. Sync
 *  strategies must reproduce the lossless weights: PS/AR sum in a
 *  fixed structural order, so recovery leaves the arithmetic
 *  untouched; sync iSwitch accumulates in switch-arrival order, so
 *  retransmissions reassociate the float sums and only a looser
 *  tolerance is meaningful. */
void
expectSurvives(const JobConfig &faulty, const Baseline &base)
{
    JobConfig cfg = faulty;
    // Safety net: a recovery bug diagnoses as a watchdog error
    // instead of hanging the test binary.
    cfg.stop.max_sim_time = base.total_time * 100 + sim::kSec;
    auto job = makeJob(cfg);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, cfg.stop.max_iterations);
    // Recovery counters are part of the observable result: the faults
    // dropped frames, every recovery landed in one latency bucket, and
    // every strategy but async iSwitch (whose short runs ride out their
    // losses without a resend) re-sent data or asked for Help.
    const auto &x = res.extras;
    EXPECT_GT(x.at("fault_iid_drops") + x.at("fault_ge_drops") +
                  x.at("fault_down_drops"),
              0.0);
    EXPECT_EQ(x.at("recoveries"), recoveryHistTotal(res));
    if (cfg.strategy != StrategyKind::kAsyncIswitch) {
        EXPECT_GT(x.at("retx_segments") + x.at("help_requests"), 0.0);
    }
    if (isAsyncStrategy(cfg.strategy))
        return; // async: liveness + counters is the contract
    EXPECT_EQ(res.iterations, base.iterations);
    ml::Vec w;
    job->workerAgent(0).getWeights(w);
    ASSERT_EQ(w.size(), base.weights.size());
    const float tol =
        cfg.strategy == StrategyKind::kSyncIswitch ? 1e-4f : 1e-6f;
    for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_NEAR(w[i], base.weights[i], tol)
            << strategyName(cfg.strategy) << " weight " << i;
}

class ChaosMatrix : public ::testing::TestWithParam<MatrixCell>
{
};

TEST_P(ChaosMatrix, SurvivesOnePercentIidLoss)
{
    const JobConfig cfg = chaosConfig(GetParam());
    const Baseline base = losslessBaseline(cfg);
    JobConfig lossy = cfg;
    lossy.faults.extra_loss = 0.01;
    expectSurvives(lossy, base);
}

TEST_P(ChaosMatrix, SurvivesGilbertElliottBursts)
{
    const JobConfig cfg = chaosConfig(GetParam());
    const Baseline base = losslessBaseline(cfg);
    JobConfig bursty = cfg;
    bursty.faults.ge.p_good_to_bad = 0.02;
    bursty.faults.ge.p_bad_to_good = 0.25;
    bursty.faults.ge.loss_bad = 0.8;
    expectSurvives(bursty, base);
}

TEST_P(ChaosMatrix, SurvivesSilentCrashAndRejoin)
{
    const JobConfig cfg = chaosConfig(GetParam());
    const Baseline base = losslessBaseline(cfg);
    JobConfig crashy = cfg;
    // Blackout worker 2's edge link for a quarter of the lossless
    // runtime, starting mid-training. announce=false: a silent
    // partition the retransmission layer must ride out on its own.
    crashy.faults.crashes.push_back(net::WorkerCrash{
        2, base.total_time * 3 / 10, base.total_time * 11 / 20, false});
    expectSurvives(crashy, base);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ChaosMatrix, allCells(), cellName);

TEST(ChaosCounters, BurstyLossTripsTheRecoveryPath)
{
    // Under a sustained ~6% burst loss, a synchronous run cannot
    // finish without the retransmission layer actually firing.
    JobConfig cfg = chaosConfig(StrategyKind::kSyncPs, 8);
    cfg.faults.ge.p_good_to_bad = 0.02;
    cfg.faults.ge.p_bad_to_good = 0.25;
    cfg.faults.ge.loss_bad = 0.8;
    cfg.stop.max_sim_time = 60 * sim::kSec;
    const RunResult res = runJob(cfg);
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_TRUE(res.extras.count("fault_ge_drops"));
    EXPECT_GT(res.extras.at("fault_ge_drops"), 0.0);
    EXPECT_GT(res.extras.at("retx_timeouts"), 0.0);
    EXPECT_GT(res.extras.at("retx_segments"), 0.0);
    EXPECT_GT(res.extras.at("recoveries"), 0.0);
    EXPECT_GT(res.extras.at("recovery_latency_ms_total"), 0.0);
    EXPECT_EQ(res.extras.at("recoveries"), recoveryHistTotal(res));
}

TEST(ChaosCounters, CrashWindowDropsAreAttributed)
{
    JobConfig cfg = chaosConfig(StrategyKind::kSyncPs);
    const Baseline base = losslessBaseline(cfg);
    JobConfig crashy = cfg;
    crashy.faults.crashes.push_back(net::WorkerCrash{
        2, base.total_time * 3 / 10, base.total_time * 11 / 20, false});
    crashy.stop.max_sim_time = base.total_time * 100 + sim::kSec;
    const RunResult res = runJob(crashy);
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_TRUE(res.extras.count("fault_down_drops"));
    EXPECT_GT(res.extras.at("fault_down_drops"), 0.0);
}

TEST(ChaosCounters, LosslessRunExposesNoRecoveryKeys)
{
    // A lossless run reports the recovery/fault keys like every run
    // does (one key set), each at 0: nothing was lost or recovered.
    const RunResult res = runJob(chaosConfig(StrategyKind::kSyncPs));
    EXPECT_EQ(res.extras.at("retx_timeouts"), 0.0);
    EXPECT_EQ(res.extras.at("retx_segments"), 0.0);
    EXPECT_EQ(res.extras.at("fault_iid_drops"), 0.0);
    EXPECT_EQ(res.extras.at("recovery_hist_lt1ms"), 0.0);
}

TEST(ChaosDeterminism, FaultyRunsAreSeedDeterministic)
{
    JobConfig cfg = chaosConfig(StrategyKind::kSyncIswitch);
    cfg.faults.ge.p_good_to_bad = 0.02;
    cfg.faults.ge.p_bad_to_good = 0.25;
    cfg.faults.ge.loss_bad = 0.8;
    cfg.stop.max_sim_time = 60 * sim::kSec;
    const RunResult a = runJob(cfg);
    const RunResult b = runJob(cfg);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.final_avg_reward, b.final_avg_reward);
    EXPECT_EQ(a.extras.at("fault_ge_drops"), b.extras.at("fault_ge_drops"));
    EXPECT_EQ(a.extras.at("retx_segments"), b.extras.at("retx_segments"));
}

TEST(QuantChaos, Int32AggregationIsBitExactUnderDupReorderAndBoundedSlots)
{
    // The headline property of the int32 wire (DESIGN.md §14): the
    // switch sums integers at a shared exponent, so the aggregate is a
    // pure function of the set of contributions — independent of
    // arrival order, duplication, retransmission, and slot reuse in a
    // bounded pool. Unlike the float path (1e-4 tolerance above), the
    // chaotic run must land on the *bit-identical* final weights.
    JobConfig cfg = chaosConfig(StrategyKind::kSyncIswitch);
    cfg.precision = net::Precision::kInt32;
    const Baseline base = losslessBaseline(cfg);

    JobConfig chaotic = cfg;
    chaotic.cluster.accel.num_slots = 4; // slot reuse while under fire
    chaotic.faults.duplicate_prob = 0.05;
    chaotic.faults.reorder_prob = 0.10;
    chaotic.faults.extra_loss = 0.01; // losses force re-encoded resends
    chaotic.stop.max_sim_time = base.total_time * 100 + sim::kSec;

    auto job = makeJob(chaotic);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.iterations, base.iterations);
    EXPECT_GT(res.extras.at("fault_duplicates") +
                  res.extras.at("fault_reorders"),
              0.0);
    ml::Vec w;
    job->workerAgent(0).getWeights(w);
    ASSERT_EQ(w.size(), base.weights.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(w[i]),
                  std::bit_cast<std::uint32_t>(base.weights[i]))
            << "weight " << i;
}

TEST(Churn, AnnouncedCrashDrivesLeaveJoinAndAutoH)
{
    // announce=true exercises the control plane end to end: a Leave at
    // the crash instant shrinks the membership table and recomputes
    // the auto threshold H (4 -> 3), the Join at rejoin restores it.
    JobConfig cfg = chaosConfig(StrategyKind::kAsyncIswitch, 16);
    const Baseline base = losslessBaseline(cfg);
    const sim::TimeNs crash_at = base.total_time * 3 / 10;
    const sim::TimeNs rejoin_at = base.total_time * 6 / 10;
    cfg.faults.crashes.push_back(
        net::WorkerCrash{3, crash_at, rejoin_at, true});
    cfg.stop.max_sim_time = base.total_time * 100 + sim::kSec;

    auto job = makeJob(cfg);
    std::uint32_t h_mid_crash = 0;
    job->simulation().at((crash_at + rejoin_at) / 2, [&] {
        h_mid_crash = job->cluster().root->accelerator().threshold();
    });
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, 16u);
    EXPECT_EQ(h_mid_crash, 3u); // Leave shrank membership, auto-H followed
    EXPECT_EQ(job->cluster().root->accelerator().threshold(), 4u);
}

// ---------------------------------------------------------------------
// High-availability failover (DESIGN.md §16): a backup switch shadows
// the primary's aggregation state; when the primary crashes mid-round,
// heartbeat misses promote the backup, workers re-home, and the round
// finishes from the replicated partials + retransmissions.

/** Like expectSurvives, but the fault is a *switch* crash and the run
 *  must additionally report exactly one failover. The sync weight
 *  contract is unchanged: recovery through the backup is exact. */
void
expectFailsOver(const JobConfig &faulty, const Baseline &base)
{
    JobConfig cfg = faulty;
    cfg.stop.max_sim_time = base.total_time * 100 + sim::kSec;
    auto job = makeJob(cfg);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, cfg.stop.max_iterations);
    ASSERT_TRUE(res.extras.count("failover_events"));
    EXPECT_EQ(res.extras.at("failover_events"), 1.0);
    EXPECT_GT(res.extras.at("failover_heartbeats"), 0.0);
    EXPECT_GT(res.extras.at("failover_beats_missed"), 0.0);
    EXPECT_GT(res.extras.at("failover_promote_ms"), 0.0);
    // Only the iSwitch plane replicates aggregation state; for PS/AR
    // strategies the backup is pure routing + membership shadow.
    if (cfg.strategy == StrategyKind::kSyncIswitch ||
        cfg.strategy == StrategyKind::kAsyncIswitch)
        EXPECT_GT(res.extras.at("failover_repl_frames"), 0.0);
    ASSERT_TRUE(res.extras.count("fault_switch_drops"));
    EXPECT_GT(res.extras.at("fault_switch_drops"), 0.0);
    if (isAsyncStrategy(cfg.strategy))
        return; // async: liveness through the failover is the contract
    EXPECT_EQ(res.iterations, base.iterations);
    ml::Vec w;
    job->workerAgent(0).getWeights(w);
    ASSERT_EQ(w.size(), base.weights.size());
    const float tol =
        cfg.strategy == StrategyKind::kSyncIswitch ? 1e-4f : 1e-6f;
    for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_NEAR(w[i], base.weights[i], tol)
            << strategyName(cfg.strategy) << " weight " << i;
}

class FailoverMatrix : public ::testing::TestWithParam<StrategyKind>
{
};

TEST_P(FailoverMatrix, MidTrainingSwitchCrashFailsOverToBackup)
{
    const JobConfig cfg = chaosConfig(GetParam());
    const Baseline base = losslessBaseline(cfg); // no HA, no faults
    JobConfig crashy = cfg;
    crashy.cluster.ha.with_backup = true;
    // Fail-stop: the primary dies mid-training and never returns.
    crashy.faults.switch_crashes.push_back(
        net::SwitchCrash{base.total_time * 3 / 10, 0});
    expectFailsOver(crashy, base);
}

INSTANTIATE_TEST_SUITE_P(
    CoreStrategies, FailoverMatrix,
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

TEST(Failover, BatchedLazyReplicationAlsoRecovers)
{
    JobConfig cfg = chaosConfig(StrategyKind::kSyncIswitch);
    const Baseline base = losslessBaseline(cfg);
    JobConfig crashy = cfg;
    crashy.cluster.ha.with_backup = true;
    crashy.cluster.ha.repl_mode = core::ReplicationMode::kBatchedLazy;
    crashy.faults.switch_crashes.push_back(
        net::SwitchCrash{base.total_time * 3 / 10, 0});
    expectFailsOver(crashy, base);
}

TEST(Failover, BackupReplicatesWithoutDisturbingLosslessTraining)
{
    // Replication rides a dedicated peer link, so it never contends
    // with training traffic for bandwidth; its events do interleave
    // with same-timestamp data events though, which reassociates the
    // switch's float sums. The training outcome must be unaffected:
    // same iteration count, weights within the reassociation
    // tolerance, and zero failovers.
    JobConfig cfg = chaosConfig(StrategyKind::kSyncIswitch);
    const Baseline base = losslessBaseline(cfg);
    JobConfig ha = cfg;
    ha.cluster.ha.with_backup = true;
    auto job = makeJob(ha);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.iterations, base.iterations);
    EXPECT_EQ(res.extras.at("failover_events"), 0.0);
    EXPECT_GT(res.extras.at("failover_repl_frames"), 0.0);
    EXPECT_GT(res.extras.at("failover_repl_applied"), 0.0);
    EXPECT_GT(res.extras.at("failover_repl_results_applied"), 0.0);
    ml::Vec w;
    job->workerAgent(0).getWeights(w);
    ASSERT_EQ(w.size(), base.weights.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_NEAR(w[i], base.weights[i], 1e-4f) << "weight " << i;
}

TEST(Failover, BatchedLazyModeSendsFewerStateFrames)
{
    JobConfig eager = chaosConfig(StrategyKind::kSyncIswitch);
    eager.cluster.ha.with_backup = true;
    JobConfig lazy = eager;
    lazy.cluster.ha.repl_mode = core::ReplicationMode::kBatchedLazy;
    const RunResult re = runJob(eager);
    const RunResult rl = runJob(lazy);
    ASSERT_TRUE(re.ok()) << re.error;
    ASSERT_TRUE(rl.ok()) << rl.error;
    // Same completions replicate either way; the lazy mode coalesces
    // the per-accept state stream into per-window dirty flushes.
    EXPECT_EQ(re.extras.at("failover_repl_results"),
              rl.extras.at("failover_repl_results"));
    EXPECT_GT(re.extras.at("failover_repl_frames"),
              rl.extras.at("failover_repl_frames"));
}

TEST(Failover, SwitchCrashWithoutBackupFailsLoudly)
{
    // Acceptance: no backup provisioned means a mid-training switch
    // crash must end in a diagnosable error, never a silent hang.
    JobConfig cfg = chaosConfig(StrategyKind::kSyncIswitch);
    const Baseline base = losslessBaseline(cfg);
    JobConfig crashy = cfg;
    crashy.faults.switch_crashes.push_back(
        net::SwitchCrash{base.total_time * 3 / 10, 0});
    crashy.stop.max_sim_time = 30 * sim::kSec;
    const RunResult res = runJob(crashy);
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(res.error.find("stalled") != std::string::npos ||
                res.error.find("watchdog") != std::string::npos)
        << res.error;
    ASSERT_TRUE(res.extras.count("fault_switch_drops"));
    EXPECT_GT(res.extras.at("fault_switch_drops"), 0.0);
    // No backup, no failover: the failover counters stay at 0.
    EXPECT_EQ(res.extras.at("failover_events"), 0.0);
}

TEST(Failover, LosslessRunExposesNoFailoverKeys)
{
    // Without a backup and without switch faults, the failover/switch
    // extras are present (one key set) and all 0.
    const RunResult res = runJob(chaosConfig(StrategyKind::kSyncIswitch));
    EXPECT_EQ(res.extras.at("failover_events"), 0.0);
    EXPECT_EQ(res.extras.at("failover_heartbeats"), 0.0);
    EXPECT_EQ(res.extras.at("failover_repl_frames"), 0.0);
    EXPECT_EQ(res.extras.at("fault_switch_drops"), 0.0);
    EXPECT_EQ(res.extras.at("fault_partition_drops"), 0.0);
}

TEST(Churn, PermanentAnnouncedCrashNeverRejoins)
{
    // rejoin_at == 0 is fail-stop: the Leave shrinks auto-H to 3 and
    // no Join is ever scheduled, so the table stays shrunk and the
    // dead worker's link drops frames to the end of the run.
    JobConfig cfg = chaosConfig(StrategyKind::kAsyncIswitch, 16);
    const Baseline base = losslessBaseline(cfg);
    cfg.faults.crashes.push_back(
        net::WorkerCrash{3, base.total_time * 3 / 10, 0, true});
    cfg.stop.max_sim_time = base.total_time * 100 + sim::kSec;
    auto job = makeJob(cfg);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, 16u);
    EXPECT_EQ(job->cluster().root->accelerator().threshold(), 3u);
    EXPECT_GT(res.extras.at("fault_down_drops"), 0.0);
}

TEST(Watchdog, UnprotectedLossyRunDiagnosesInsteadOfHanging)
{
    JobConfig cfg = chaosConfig(StrategyKind::kSyncPs, 50);
    cfg.faults.extra_loss = 0.05;
    cfg.retx.max_retries = 0; // recovery explicitly disabled
    cfg.stop.max_sim_time = 30 * sim::kSec;
    const RunResult res = runJob(cfg);
    EXPECT_FALSE(res.ok());
    // The first lost chunk starves the round; the event queue drains
    // (or the watchdog deadline passes) and the run reports why.
    EXPECT_TRUE(res.error.find("stalled") != std::string::npos ||
                res.error.find("watchdog") != std::string::npos)
        << res.error;
    EXPECT_LT(res.iterations, 50u);
}

TEST(Watchdog, TooShortDeadlineReportsWatchdogError)
{
    JobConfig cfg = chaosConfig(StrategyKind::kSyncPs, 50);
    cfg.stop.max_sim_time = 1 * sim::kUsec; // nothing can finish
    const RunResult res = runJob(cfg);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("watchdog"), std::string::npos) << res.error;
}

// Lossy fat-trees: 12 workers in racks of 3 and pods of 2 racks (4
// ToRs, 2 AGGs, one core), 20 iterations at seed 1.

JobConfig
lossyFatTreeConfig(StrategyKind k)
{
    JobConfig cfg = harness::timingSpec(rl::Algo::kPpo, k, 12).config;
    cfg.use_fat_tree = true;
    cfg.cluster.per_rack = 3;
    cfg.cluster.racks_per_pod = 2;
    cfg.stop.max_iterations = 20;
    cfg.stop.max_sim_time = 30 * sim::kSec; // a stall reports, never hangs
    cfg.seed = 1;
    return cfg;
}

TEST(FatTree, LossySyncIswitchMatchesSyncPs)
{
    // A rack whose result is late asks its ToR for Help. A ToR that
    // lacks the result re-aggregates the rack and forwards the partial
    // again, so the AGG above it must dedupe per (segment, source) like
    // every other aggregation switch, or it folds that rack twice.
    auto weights = [](StrategyKind k) {
        JobConfig cfg = lossyFatTreeConfig(k);
        cfg.cluster.edge_link.loss_prob = 0.005;
        auto job = makeJob(cfg);
        const RunResult res = job->run();
        EXPECT_TRUE(res.ok()) << strategyName(k) << ": " << res.error;
        EXPECT_GE(res.iterations, 20u) << strategyName(k);
        ml::Vec w;
        job->workerAgent(0).getWeights(w);
        return w;
    };
    const ml::Vec ps = weights(StrategyKind::kSyncPs);
    const ml::Vec isw = weights(StrategyKind::kSyncIswitch);
    ASSERT_EQ(isw.size(), ps.size());
    for (std::size_t i = 0; i < isw.size(); ++i)
        ASSERT_NEAR(isw[i], ps[i], 1e-5f) << "weight " << i;
}

TEST(FatTree, LossyCoreLinksArmRecovery)
{
    // Loss on the AGG <-> core links alone must arm retransmission.
    for (StrategyKind k :
         {StrategyKind::kSyncPs, StrategyKind::kSyncAllReduce}) {
        JobConfig cfg = lossyFatTreeConfig(k);
        cfg.cluster.core_link.loss_prob = 0.005;
        const RunResult res = runJob(cfg);
        EXPECT_TRUE(res.ok()) << strategyName(k) << ": " << res.error;
        EXPECT_GE(res.iterations, 20u) << strategyName(k);
    }
}

} // namespace
} // namespace isw::dist
