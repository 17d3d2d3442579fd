/** @file Bounded aggregator slot pool + multi-job switch sharing.
 *
 *  Covers the DESIGN.md §11 contract end to end: a 4-slot pool
 *  streams a tensor bigger than itself without ever exceeding its
 *  capacity; an ample pool reports what the unbounded pool does;
 *  a worker's Leave reclaims its partials from the pool;
 *  duplication + reordering faults neither double-accumulate
 *  nor deadlock against a tiny pool; and two concurrent jobs share
 *  one switch with fairness/contention counters to show for it. */

#include <gtest/gtest.h>

#include <sstream>

#include "dist/multijob.hh"
#include "dist/strategy.hh"
#include "harness/runner.hh"
#include "net/packet_pool.hh"

namespace isw::dist {
namespace {

/** Sync iSwitch config whose wire tensor spans @p segments segments. */
JobConfig
slotConfig(StrategyKind k, std::uint64_t segments, std::size_t num_slots,
           std::uint64_t iters = 5)
{
    JobConfig cfg = JobConfig::forBenchmark(rl::Algo::kPpo, k, 3);
    cfg.wire_model_bytes = segments * core::kFloatsPerSeg * 4;
    cfg.cluster.accel.num_slots = num_slots;
    cfg.stop.max_iterations = iters;
    cfg.curve_every = 4;
    return cfg;
}

TEST(BoundedPoolStreaming, FourSlotsCarrySixteenSegments)
{
    // The hard-bound criterion: a 4-slot pool completes a 16-segment
    // tensor via the self-clocking window, and the switch's peak slot
    // occupancy never exceeds the configured capacity.
    const JobConfig cfg =
        slotConfig(StrategyKind::kSyncIswitch, 16, 4);
    auto job = makeJob(cfg);
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.iterations, cfg.stop.max_iterations);
    ASSERT_TRUE(res.extras.count("peak_active_segments"));
    EXPECT_LE(res.extras.at("peak_active_segments"), 4.0);
    EXPECT_GT(res.extras.at("peak_active_segments"), 0.0);
    // Lossless in-order streaming never bounces off a busy slot.
    EXPECT_EQ(res.extras.at("slot_busy_drops"), 0.0);
    EXPECT_EQ(res.extras.at("slot_capacity"), 4.0);
}

TEST(BoundedPoolStreaming, MatchesUnboundedWeightsExactly)
{
    // Streaming changes packet pacing but not arithmetic: same wire
    // values folded per segment in the same worker order (FIFO links,
    // one switch), so final weights match the unbounded run exactly.
    const JobConfig unbounded =
        slotConfig(StrategyKind::kSyncIswitch, 8, 0);
    JobConfig bounded = unbounded;
    bounded.cluster.accel.num_slots = 4;

    auto a = makeJob(unbounded);
    ASSERT_TRUE(a->run().ok());
    auto b = makeJob(bounded);
    ASSERT_TRUE(b->run().ok());
    ml::Vec wa, wb;
    a->workerAgent(0).getWeights(wa);
    b->workerAgent(0).getWeights(wb);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
        ASSERT_EQ(wa[i], wb[i]) << "weight " << i;
}

TEST(BoundedPoolStreaming, AmplePoolReportIsByteIdenticalToLegacy)
{
    // Acceptance criterion: pool >= segment count + single job +
    // lossless => the serialized report is byte-identical to the
    // unbounded pool's (num_slots = 0), apart from slot_capacity and
    // slot_quota, which repeat num_slots.
    const JobConfig legacy =
        slotConfig(StrategyKind::kSyncIswitch, 6, 0);
    JobConfig ample = legacy;
    ample.cluster.accel.num_slots = 8; // >= 6 segments

    RunResult r0 = runJob(legacy);
    RunResult r1 = runJob(ample);
    ASSERT_TRUE(r0.ok()) << r0.error;
    ASSERT_TRUE(r1.ok()) << r1.error;
    EXPECT_EQ(r1.extras.at("slot_capacity"), 8.0);
    EXPECT_EQ(r1.extras.at("slot_quota"), 8.0);
    for (RunResult *r : {&r0, &r1}) {
        r->extras.erase("slot_capacity");
        r->extras.erase("slot_quota");
    }
    EXPECT_EQ(harness::resultToJson(r0).dump(2),
              harness::resultToJson(r1).dump(2));
}

TEST(BoundedPoolStreaming, AsyncRequiresAmplePool)
{
    // Async iSwitch reuses segment indices with dedupe off; a quota
    // below the tensor's segment count is structurally unsafe and
    // must be rejected loudly, not silently corrupt sums.
    const JobConfig bad = slotConfig(StrategyKind::kAsyncIswitch, 8, 4);
    EXPECT_THROW(makeJob(bad), std::invalid_argument);
}

TEST(BoundedPoolStreaming, AsyncWithAmplePoolRuns)
{
    const JobConfig cfg = slotConfig(StrategyKind::kAsyncIswitch, 4, 8);
    const RunResult res = runJob(cfg);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, cfg.stop.max_iterations);
}

TEST(BoundedPoolStreaming, TreeClustersRejectBoundedPools)
{
    JobConfig cfg = slotConfig(StrategyKind::kSyncIswitch, 8, 4);
    cfg.use_tree = true;
    cfg.cluster.per_rack = 2;
    EXPECT_THROW(makeJob(cfg), std::invalid_argument);
}

/** Duplication + reordering against a 4-slot pool: the slot pool's
 *  floor/version machinery must drop ghosts (no double accumulation)
 *  and the window/Nack machinery must keep the stream live (no
 *  deadlock). Sync gets exact-iteration completion; async liveness. */
class SlotChaos : public ::testing::TestWithParam<StrategyKind>
{
};

TEST_P(SlotChaos, DuplicationAndReorderingNeitherCorruptNorDeadlock)
{
    const bool async = isAsyncStrategy(GetParam());
    // Async cannot stream (quota must cover the tensor); sync gets a
    // pool four times smaller than the tensor.
    JobConfig cfg = slotConfig(GetParam(), async ? 4 : 16,
                               async ? 8 : 4, /*iters=*/4);
    const RunResult clean = runJob(cfg);
    ASSERT_TRUE(clean.ok()) << clean.error;

    JobConfig faulty = cfg;
    faulty.faults.duplicate_prob = 0.05;
    faulty.faults.reorder_prob = 0.05;
    faulty.faults.reorder_delay = 200 * sim::kUsec;
    faulty.faults.extra_loss = 1e-4;
    faulty.stop.max_sim_time = clean.total_time * 100 + sim::kSec;
    const RunResult res = runJob(faulty);
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_GE(res.iterations, cfg.stop.max_iterations);
    ASSERT_TRUE(res.extras.count("peak_active_segments"));
    EXPECT_LE(res.extras.at("peak_active_segments"),
              static_cast<double>(faulty.cluster.accel.num_slots));

    if (!async) {
        // No double accumulation: every completed segment summed
        // exactly one contribution per worker, so the faulty run's
        // weights track the clean run (float reassociation only).
        auto job = makeJob(faulty);
        ASSERT_TRUE(job->run().ok());
        auto clean_job = makeJob(cfg);
        ASSERT_TRUE(clean_job->run().ok());
        ml::Vec wf, wc;
        job->workerAgent(0).getWeights(wf);
        clean_job->workerAgent(0).getWeights(wc);
        ASSERT_EQ(wf.size(), wc.size());
        for (std::size_t i = 0; i < wf.size(); ++i)
            ASSERT_NEAR(wf[i], wc[i], 1e-4f) << "weight " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(IswitchStrategies, SlotChaos,
                         ::testing::Values(StrategyKind::kSyncIswitch,
                                           StrategyKind::kAsyncIswitch),
                         [](const auto &info) {
                             return info.param ==
                                            StrategyKind::kSyncIswitch
                                        ? "SyncIsw"
                                        : "AsyncIsw";
                         });

// ---------------------------------------------------------------------
// Multi-job switch sharing.

MultiJobConfig
twoJobConfig(std::size_t num_slots)
{
    MultiJobConfig mc;
    mc.fabric.accel.num_slots = num_slots;
    JobConfig a = JobConfig::forBenchmark(
        rl::Algo::kPpo, StrategyKind::kSyncIswitch, 2);
    a.wire_model_bytes = 8 * core::kFloatsPerSeg * 4;
    a.stop.max_iterations = 4;
    a.curve_every = 4;
    JobConfig b = a;
    b.algo = rl::Algo::kDqn;
    b.agent = rl::specFor(rl::Algo::kDqn).config;
    b.profile = profileFor(rl::Algo::kDqn);
    mc.jobs = {a, b};
    return mc;
}

TEST(SwitchSharing, TwoJobsConvergeOnOneSwitch)
{
    const MultiJobConfig mc = twoJobConfig(/*num_slots=*/8);
    const MultiJobResult res = runSharedJobs(mc);
    ASSERT_EQ(res.jobs.size(), 2u);
    for (std::size_t i = 0; i < res.jobs.size(); ++i) {
        ASSERT_TRUE(res.jobs[i].ok())
            << "job " << i << ": " << res.jobs[i].error;
        EXPECT_EQ(res.jobs[i].iterations, 4u) << "job " << i;
        // Per-job slot observability rides the partitioned pool.
        EXPECT_TRUE(res.jobs[i].extras.count("slot_quota"));
        EXPECT_EQ(res.jobs[i].extras.at("slot_quota"), 4.0);
        EXPECT_TRUE(res.jobs[i].extras.count("slot_completed"));
        EXPECT_GT(res.jobs[i].extras.at("slot_completed"), 0.0);
    }
    // Fabric metrics: fairness in (0, 1], aggregate throughput > 0.
    ASSERT_TRUE(res.fabric.count("jain_fairness"));
    EXPECT_GT(res.fabric.at("jain_fairness"), 0.0);
    EXPECT_LE(res.fabric.at("jain_fairness"), 1.0 + 1e-12);
    EXPECT_GT(res.fabric.at("aggregate_iterations_per_sec"), 0.0);
    EXPECT_EQ(res.fabric.at("slot_capacity"), 8.0);
}

TEST(SwitchSharing, SlotsPartitionProportionallyToModelSize)
{
    // Job A: 8 segments, job B: 24 segments, 8 slots. Largest-remainder
    // apportionment with a 1-slot floor: spare = 6 split 8:24 ->
    // 1.5/4.5, floors 1/4, the leftover slot goes to the higher
    // fraction (tie -> lower index), so quotas are 3 and 5.
    MultiJobConfig mc = twoJobConfig(/*num_slots=*/8);
    mc.jobs[1].wire_model_bytes = 24 * core::kFloatsPerSeg * 4;
    const MultiJobResult res = runSharedJobs(mc);
    ASSERT_EQ(res.jobs.size(), 2u);
    ASSERT_TRUE(res.jobs[0].ok()) << res.jobs[0].error;
    ASSERT_TRUE(res.jobs[1].ok()) << res.jobs[1].error;
    EXPECT_EQ(res.jobs[0].extras.at("slot_quota"), 3.0);
    EXPECT_EQ(res.jobs[1].extras.at("slot_quota"), 5.0);
    // Every slot is assigned: quotas sum to capacity.
    EXPECT_EQ(res.fabric.at("slot_capacity"), 8.0);
}

TEST(SwitchSharing, JobsAreIsolatedFromEachOther)
{
    // A job co-scheduled with a neighbor must train exactly as it
    // would sharing the switch with nobody: same iteration count and
    // same final weights as a solo run of the same config would give
    // identical *gradient math* (packet interleaving differs, but
    // per-job dedupe + partitioned slots keep the sums per-job pure).
    const MultiJobConfig mc = twoJobConfig(/*num_slots=*/8);
    const MultiJobResult res = runSharedJobs(mc);
    ASSERT_EQ(res.jobs.size(), 2u);
    ASSERT_TRUE(res.jobs[0].ok()) << res.jobs[0].error;
    ASSERT_TRUE(res.jobs[1].ok()) << res.jobs[1].error;
    // Cross-job interference would show up as stale/busy/unadmitted
    // drops on a lossless fabric.
    for (const RunResult &r : res.jobs) {
        EXPECT_EQ(r.extras.at("slot_stale_drops"), 0.0);
        EXPECT_EQ(r.extras.at("slot_busy_drops"), 0.0);
        EXPECT_EQ(r.extras.at("slot_unadmitted"), 0.0);
    }
}

TEST(SwitchSharing, SyncAndAsyncCanShare)
{
    MultiJobConfig mc = twoJobConfig(/*num_slots=*/16);
    // Job B becomes async: it needs quota >= its segment count, so
    // reuse job A's small 8-segment model (quota is 16/2 = 8).
    mc.jobs[1] = mc.jobs[0];
    mc.jobs[1].strategy = StrategyKind::kAsyncIswitch;
    const MultiJobResult res = runSharedJobs(mc);
    ASSERT_EQ(res.jobs.size(), 2u);
    ASSERT_TRUE(res.jobs[0].ok()) << res.jobs[0].error;
    ASSERT_TRUE(res.jobs[1].ok()) << res.jobs[1].error;
    EXPECT_GE(res.jobs[1].iterations, 4u);
}

TEST(SwitchSharing, RejectsInadmissibleSchedules)
{
    // No jobs.
    EXPECT_THROW(runSharedJobs(MultiJobConfig{}), std::invalid_argument);
    // Fewer slots than jobs.
    MultiJobConfig tiny = twoJobConfig(/*num_slots=*/1);
    EXPECT_THROW(runSharedJobs(tiny), std::invalid_argument);
    // Non-iSwitch strategy on the shared switch.
    MultiJobConfig ps = twoJobConfig(/*num_slots=*/8);
    ps.jobs[0].strategy = StrategyKind::kSyncPs;
    EXPECT_THROW(runSharedJobs(ps), std::invalid_argument);
    // Async job whose quota cannot cover its tensor.
    MultiJobConfig starved = twoJobConfig(/*num_slots=*/8);
    starved.jobs[1].strategy = StrategyKind::kAsyncIswitch;
    EXPECT_THROW(runSharedJobs(starved), std::invalid_argument);
}

TEST(SwitchSharing, DeterministicAcrossRuns)
{
    const MultiJobConfig mc = twoJobConfig(/*num_slots=*/8);
    const MultiJobResult a = runSharedJobs(mc);
    const MultiJobResult b = runSharedJobs(mc);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].total_time, b.jobs[i].total_time);
        EXPECT_EQ(a.jobs[i].final_avg_reward,
                  b.jobs[i].final_avg_reward);
    }
    EXPECT_EQ(a.fabric.at("jain_fairness"), b.fabric.at("jain_fairness"));
}

TEST(SwitchSharing, CrashedWorkersSlotsAreReclaimed)
{
    // A worker that announces Leave mid-round must have its partial
    // sums reclaimed from the bounded pool and must not stall it.
    // Workers 0 and 1 run four times slower, so worker 2's
    // contributions sit in the 4-slot pool waiting for theirs when its
    // Leave lands, 30% into the run.
    JobConfig cfg = slotConfig(StrategyKind::kSyncIswitch, 16, 4,
                               /*iters=*/6);
    for (std::size_t w : {0u, 1u})
        cfg.faults.stragglers.push_back(net::Straggler{w, 4.0});
    const RunResult clean = runJob(cfg);
    ASSERT_TRUE(clean.ok()) << clean.error;

    // Reclaim drops the leaver's partials wholesale — the survivors'
    // folded-in contributions go with them, and only the Help
    // recovery path rebuilds such a segment. Arm it (negligible
    // actual loss) so the round completes instead of starving.
    cfg.faults.extra_loss = 1e-9;
    cfg.stop.max_sim_time = clean.total_time * 100 + sim::kSec;
    auto job = makeJob(cfg);
    // Worker 2 sends Leave then rejoins shortly after (the strategy
    // keeps driving it; membership churn is what we're exercising, the
    // auto-H dip makes remaining rounds completable).
    net::Host *h = job->cluster().workers[2];
    core::ProgrammableSwitch *sw = job->cluster().root;
    const sim::TimeNs leave_at = clean.total_time * 3 / 10;
    job->simulation().at(leave_at, [h, sw] {
        net::ControlPayload leave;
        leave.action = net::Action::kLeave;
        h->sendTo(sw->ip(), kSwitchPort, kWorkerPort, net::kTosControl,
                  leave);
    });
    job->simulation().at(leave_at + 2 * sim::kMsec, [h, sw] {
        net::ControlPayload join;
        join.action = net::Action::kJoin;
        join.has_value = true;
        join.value = core::encodeJoinValue(kWorkerPort,
                                           core::MemberType::kWorker);
        h->sendTo(sw->ip(), kSwitchPort, kWorkerPort, net::kTosControl,
                  join);
    });
    const RunResult res = job->run();
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.iterations, 6u);
    EXPECT_GT(res.extras.at("slot_reclaimed"), 0.0);
}

// ---------------------------------------------------------------------
// Per-job aggregation knobs: every job id, job 0 included, has its own
// threshold and dedupe row at the switch, and SetH pins only the
// sender's job.

/** Send a control message from @p h to the star's switch. */
void
sendControl(const Cluster &c, net::Host *h, net::ControlPayload msg)
{
    h->sendTo(c.root->ip(), kSwitchPort, kWorkerPort, net::kTosControl,
              std::move(msg));
}

TEST(PerJobKnobs, SetHFromJobTwoWorkerPinsOnlyJobTwo)
{
    sim::Simulation s(1);
    ClusterConfig cfg;
    cfg.worker_jobs = {1, 1, 2, 2};
    const Cluster c = buildStarCluster(s, cfg);
    const core::Accelerator &acc = c.root->accelerator();
    ASSERT_EQ(acc.threshold(1), 2u);
    ASSERT_EQ(acc.threshold(2), 2u);

    sendControl(c, c.workers[2], {net::Action::kSetH, 1, true});
    s.run();
    EXPECT_EQ(acc.threshold(2), 1u);
    EXPECT_EQ(acc.threshold(1), 2u);
    EXPECT_EQ(acc.threshold(0), 1u);

    // Job 1's H still tracks its members: a third one joins.
    c.root->adminJoin(net::Ipv4Addr(10, 0, 0, 99), kWorkerPort,
                      core::MemberType::kWorker, 1);
    EXPECT_EQ(acc.threshold(1), 3u);
    EXPECT_EQ(acc.threshold(2), 1u);
}

TEST(PerJobKnobs, SetHAtHaPrimaryPinsTheBackup)
{
    // The backup mirrors the primary's control plane, so a promoted
    // backup must fold with the H a worker set, not the automatic one.
    sim::Simulation s(1);
    ClusterConfig cfg;
    cfg.ha.with_backup = true;
    const Cluster c = buildStarCluster(s, cfg);
    ASSERT_NE(c.backup, nullptr);
    ASSERT_EQ(c.backup->accelerator().threshold(0), 4u);

    sendControl(c, c.workers[0], {net::Action::kSetH, 2, true});
    s.run();
    EXPECT_EQ(c.root->accelerator().threshold(0), 2u);
    EXPECT_EQ(c.backup->accelerator().threshold(0), 2u);

    // Membership changes the primary mirrors leave the pin in place.
    sendControl(c, c.workers[3], {net::Action::kLeave, 0, false});
    s.run();
    sendControl(c, c.workers[3],
                {net::Action::kJoin,
                 core::encodeJoinValue(kWorkerPort, core::MemberType::kWorker),
                 true});
    s.run();
    EXPECT_EQ(c.backup->controlPlane().table().size(), 4u);
    EXPECT_EQ(c.backup->accelerator().threshold(0), 2u);
    c.backup->adminJoin(net::Ipv4Addr(10, 0, 0, 99), kWorkerPort,
                        core::MemberType::kWorker);
    EXPECT_EQ(c.backup->accelerator().threshold(0), 2u);
}

/** A switch's membership rows and the H of jobs 0-3. */
std::string
membershipDump(core::ProgrammableSwitch &sw)
{
    std::ostringstream o;
    for (const core::Member &m : sw.controlPlane().table().members())
        o << "member " << m.id << ' ' << m.ip.str() << ':' << m.udp_port
          << " type " << static_cast<int>(m.type) << " job "
          << static_cast<int>(m.job) << '\n';
    for (std::uint8_t job = 0; job < 4; ++job)
        o << "H job " << static_cast<int>(job) << ' '
          << sw.accelerator().threshold(job) << '\n';
    return o.str();
}

TEST(PerJobKnobs, HaBackupMirrorsJoinSetHAndLeave)
{
    // The backup applies what its primary mirrors through the control
    // plane's own membership path, so after a Join, a SetH and a Leave
    // at the primary, its rows, per-job H and pins equal the primary's.
    sim::Simulation s(1);
    ClusterConfig cfg;
    cfg.worker_jobs = {1, 1, 2, 2};
    cfg.ha.with_backup = true;
    const Cluster c = buildStarCluster(s, cfg);
    ASSERT_NE(c.backup, nullptr);
    core::ProgrammableSwitch &primary = *c.root;
    core::ProgrammableSwitch &backup = *c.backup;
    ASSERT_EQ(membershipDump(backup), membershipDump(primary));

    // Worker 0 rejoins as job 3, worker 1 pins job 1 at 5, and worker 2
    // leaves job 2.
    sendControl(c, c.workers[0],
                {net::Action::kJoin,
                 core::encodeJoinValue(kWorkerPort, core::MemberType::kWorker,
                                       3),
                 true});
    s.run();
    sendControl(c, c.workers[1], {net::Action::kSetH, 5, true});
    s.run();
    sendControl(c, c.workers[2], {net::Action::kLeave, 0, false});
    s.run();
    EXPECT_EQ(primary.controlPlane().table().size(), 3u);
    EXPECT_EQ(primary.accelerator().threshold(1), 5u);
    EXPECT_EQ(primary.accelerator().threshold(2), 1u);
    EXPECT_EQ(primary.accelerator().threshold(3), 1u);
    EXPECT_EQ(membershipDump(backup), membershipDump(primary));

    // Pins: one more member per job moves the H of exactly the
    // unpinned jobs, on both switches alike.
    for (std::uint8_t job = 0; job < 4; ++job)
        for (core::ProgrammableSwitch *sw : {&primary, &backup})
            sw->adminJoin(net::Ipv4Addr(10, 0, 9, 1 + job), kWorkerPort,
                          core::MemberType::kWorker, job);
    EXPECT_EQ(primary.accelerator().threshold(1), 5u);
    EXPECT_EQ(primary.accelerator().threshold(3), 2u);
    EXPECT_EQ(membershipDump(backup), membershipDump(primary));
}

TEST(PerJobKnobs, PinnedThresholdSurvivesAnotherJobsLeave)
{
    // Job 2 is an async iSwitch job with H pinned at 1 on a shared
    // star; a job-1 worker then leaves.
    net::PacketPool frames;
    const net::PacketPool::Scope frames_scope(frames);
    sim::Simulation s(1);
    ClusterConfig fabric_cfg;
    fabric_cfg.worker_jobs = {1, 1, 2, 2};
    Cluster fabric = buildStarCluster(s, fabric_cfg);
    JobConfig cfg = JobConfig::forBenchmark(
        rl::Algo::kPpo, StrategyKind::kAsyncIswitch, 2);
    cfg.agg_threshold = 1;
    SharedWorld world;
    world.sim = &s;
    world.fabric = &fabric;
    world.worker_offset = 2;
    world.job_id = 2;
    const auto job = makeJob(cfg, &world);
    const core::Accelerator &acc = fabric.root->accelerator();
    ASSERT_EQ(acc.threshold(2), 1u);

    sendControl(fabric, fabric.workers[0], {net::Action::kLeave, 0, false});
    s.run();
    EXPECT_EQ(acc.threshold(1), 1u);
    EXPECT_EQ(acc.threshold(2), 1u);
}

TEST(PerJobKnobs, OwnedJobRejectsWorkerJobs)
{
    // Only runSharedJobs tags workers with jobs: an owned job stamps
    // its frames with job 0, which would have no members to serve.
    JobConfig cfg = JobConfig::forBenchmark(
        rl::Algo::kPpo, StrategyKind::kSyncIswitch, 4);
    cfg.cluster.worker_jobs = {1, 1, 2, 2};
    EXPECT_THROW(makeJob(cfg), std::invalid_argument);
    cfg.use_tree = true;
    EXPECT_THROW(makeJob(cfg), std::invalid_argument);
}

} // namespace
} // namespace isw::dist