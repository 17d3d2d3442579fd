/**
 * @file
 * Experiment-runner tests. The headline test is determinism parity:
 * the same spec batch executed serially (--jobs 1) and on an
 * 8-thread pool must produce byte-identical RunResults, because each
 * spec runs in its own self-contained Simulation seeded only by its
 * config.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/runner.hh"

namespace isw::harness {
namespace {

/** A diverse batch of cheap specs (few iterations each). */
std::vector<ExperimentSpec>
smallBatch()
{
    std::vector<ExperimentSpec> specs;
    auto add = [&specs](rl::Algo algo, dist::StrategyKind k,
                        std::size_t ps_shards = 1) {
        ExperimentSpec spec = timingSpec(algo, k);
        spec.name += "/unit";
        spec.config.ps_shards = ps_shards;
        spec.config.stop.max_iterations = 5;
        specs.push_back(std::move(spec));
    };
    add(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
    add(rl::Algo::kDqn, dist::StrategyKind::kSyncIswitch);
    add(rl::Algo::kPpo, dist::StrategyKind::kSyncAllReduce);
    add(rl::Algo::kPpo, dist::StrategyKind::kAsyncIswitch);
    add(rl::Algo::kA2c, dist::StrategyKind::kSyncPs, /*ps_shards=*/4);
    add(rl::Algo::kDdpg, dist::StrategyKind::kAsyncPs);
    return specs;
}

RunnerOptions
quietOpts(std::size_t jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.log_sink = [](const std::string &) {};
    return opts;
}

TEST(Runner, ParallelMatchesSerialByteForByte)
{
    const std::vector<ExperimentSpec> specs = smallBatch();

    Runner serial(quietOpts(1));
    Runner parallel(quietOpts(8));
    ASSERT_EQ(serial.jobs(), 1u);
    ASSERT_EQ(parallel.jobs(), 8u);

    const auto a = serial.runAll(specs);
    const auto b = parallel.runAll(specs);
    ASSERT_EQ(a.size(), specs.size());
    ASSERT_EQ(b.size(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        // The JSON dump covers every result field (iterations, timing,
        // reward, breakdown, extras, curve) with deterministic
        // formatting, so string equality is byte-level result parity.
        EXPECT_EQ(resultToJson(a[i]).dump(), resultToJson(b[i]).dump())
            << "spec " << specs[i].name
            << " diverged between --jobs 1 and --jobs 8";
    }
}

TEST(Runner, WarmPacketPoolDoesNotChangeResults)
{
    // Pool-recycling parity: the first run starts on a cold
    // thread-local PacketPool, the second reuses every recycled
    // packet, control block, and float buffer the first one parked.
    // Simulated results must be byte-identical either way.
    ExperimentSpec spec =
        timingSpec(rl::Algo::kDqn, dist::StrategyKind::kSyncIswitch);
    spec.config.stop.max_iterations = 5;

    Runner cold(quietOpts(1));
    const std::string first = resultToJson(cold.run(spec)).dump();
    Runner warm(quietOpts(1));
    const std::string second = resultToJson(warm.run(spec)).dump();
    EXPECT_EQ(first, second)
        << "warm-pool rerun diverged from cold-pool run";
}

TEST(Runner, ReportCarriesPerfBlockOutsideResult)
{
    // Wall-clock-class throughput metrics must appear in the report
    // next to wall_clock_ms but never inside resultToJson (which the
    // parity tests compare byte-for-byte).
    ExperimentSpec spec =
        timingSpec(rl::Algo::kDqn, dist::StrategyKind::kSyncIswitch);
    spec.config.stop.max_iterations = 3;

    Runner runner(quietOpts(1));
    const dist::RunResult &res = runner.run(spec);
    EXPECT_TRUE(res.perf.count("events_per_sec"));
    EXPECT_TRUE(res.perf.count("pool_allocs"));
    EXPECT_TRUE(res.extras.count("events_executed"));
    EXPECT_TRUE(res.extras.count("packets_sealed"));
    EXPECT_GT(res.extras.at("events_executed"), 0.0);
    EXPECT_GT(res.extras.at("packets_sealed"), 0.0);

    const json::Value result_json = resultToJson(res);
    EXPECT_EQ(result_json.find("perf"), nullptr);

    const json::Value report = runner.reportJson("unit");
    const json::Value *runs = report.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 1u);
    const json::Value *perf = runs->items()[0].find("perf");
    ASSERT_NE(perf, nullptr);
    EXPECT_NE(perf->find("events_per_sec"), nullptr);
}

TEST(Runner, DeduplicatesIdenticalSpecsBeforeSubmission)
{
    ExperimentSpec spec =
        timingSpec(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
    spec.config.stop.max_iterations = 4;

    Runner runner(quietOpts(4));
    // Same config three times (one under a different display name):
    // one execution, three results.
    ExperimentSpec alias = spec;
    alias.name = "some/other/name";
    const auto results = runner.runAll({spec, alias, spec});
    EXPECT_EQ(runner.executed(), 1u);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(resultToJson(results[0]).dump(),
              resultToJson(results[1]).dump());
    EXPECT_EQ(resultToJson(results[0]).dump(),
              resultToJson(results[2]).dump());
}

TEST(Runner, MemoizesAcrossCalls)
{
    ExperimentSpec spec =
        timingSpec(rl::Algo::kPpo, dist::StrategyKind::kSyncIswitch);
    spec.config.stop.max_iterations = 4;

    Runner runner(quietOpts(2));
    const dist::RunResult &first = runner.run(spec);
    const dist::RunResult &again = runner.run(spec);
    EXPECT_EQ(&first, &again); // cached entry, not a re-run
    EXPECT_EQ(runner.executed(), 1u);
}

TEST(Runner, ResultsComeBackInSpecOrder)
{
    // Distinct iteration caps make each result identifiable.
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t cap : {7u, 3u, 5u}) {
        ExperimentSpec spec =
            timingSpec(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
        spec.config.stop.max_iterations = cap;
        specs.push_back(std::move(spec));
    }
    Runner runner(quietOpts(8));
    const auto results = runner.runAll(specs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].iterations, 7u);
    EXPECT_EQ(results[1].iterations, 3u);
    EXPECT_EQ(results[2].iterations, 5u);
}

TEST(Runner, SeedOverrideChangesRunIdentity)
{
    ExperimentSpec spec =
        timingSpec(rl::Algo::kA2c, dist::StrategyKind::kSyncPs);
    spec.config.stop.max_iterations = 3;
    ExperimentSpec reseeded = spec;
    reseeded.config.seed = 99;

    EXPECT_FALSE(SpecKey::of(spec.config) == SpecKey::of(reseeded.config));

    Runner runner(quietOpts(2));
    runner.run(spec);
    runner.run(reseeded);
    EXPECT_EQ(runner.executed(), 2u);
}

TEST(SpecKey, BitEqualConfigsShareAKey)
{
    const dist::JobConfig a =
        timingJob(rl::Algo::kDqn, dist::StrategyKind::kSyncIswitch);
    const dist::JobConfig b = a;
    EXPECT_TRUE(SpecKey::of(a) == SpecKey::of(b));
    EXPECT_FALSE(SpecKey::of(a) < SpecKey::of(b));
    EXPECT_FALSE(SpecKey::of(b) < SpecKey::of(a));
}

TEST(SpecKey, NanTargetRewardIsSelfEqual)
{
    // Timing configs carry target_reward = NaN; the bit-pattern
    // encoding must keep the ordering total (a raw double NaN would
    // compare false both ways against everything, corrupting the map).
    dist::JobConfig a =
        timingJob(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
    ASSERT_TRUE(std::isnan(a.stop.target_reward));
    dist::JobConfig b = a;
    EXPECT_TRUE(SpecKey::of(a) == SpecKey::of(b));

    b.stop.target_reward = 195.0;
    EXPECT_FALSE(SpecKey::of(a) == SpecKey::of(b));
}

TEST(SpecKey, EveryReportedFieldChangesTheKey)
{
    const dist::JobConfig base =
        timingJob(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
    const SpecKey k0 = SpecKey::of(base);

    dist::JobConfig c = base;
    c.seed += 1;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.num_workers += 1;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.wire_model_bytes += 1;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.use_tree = !c.use_tree;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.agg_threshold += 1;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.cluster.edge_link.bandwidth_bps *= 2.0;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.agent.lr *= 0.5;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.cluster.ha.with_backup = true;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.cluster.ha.repl_mode = core::ReplicationMode::kBatchedLazy;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.cluster.ha.staleness_window *= 2;
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.faults.switch_crashes.push_back(net::SwitchCrash{sim::kSec, 0});
    EXPECT_FALSE(SpecKey::of(c) == k0);

    c = base;
    c.faults.control_partitions.push_back(
        net::ControlPartition{sim::kSec, 2 * sim::kSec});
    EXPECT_FALSE(SpecKey::of(c) == k0);
}

/** Every leaf of @p v as path -> compact dump ("/cluster/ha/repl_mode"). */
void
leaves(const json::Value &v, const std::string &path,
       std::map<std::string, std::string> &out)
{
    if (!v.members().empty()) {
        for (const auto &[key, member] : v.members())
            leaves(member, path + "/" + key, out);
    } else if (!v.items().empty()) {
        for (std::size_t i = 0; i < v.size(); ++i)
            leaves(v.items()[i], path + "/" + std::to_string(i), out);
    } else {
        out[path] = v.dump();
    }
}

TEST(SpecKey, EveryConfigValueChangesTheKey)
{
    // One row per value configToJson emits. Each row changes exactly
    // that value and must get a key of its own; a value the config
    // block gains without a row fails the coverage check at the end.
    using Cfg = dist::JobConfig;
    Cfg base = timingJob(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
    base.cluster.worker_jobs = {1};
    base.faults.link_down = {net::LinkDownWindow{1, 10, 20}};
    base.faults.crashes = {net::WorkerCrash{1, 10, 20, true}};
    base.faults.stragglers = {net::Straggler{1, 2.0, 10, 20}};
    base.faults.switch_crashes = {net::SwitchCrash{10, 20}};
    base.faults.control_partitions = {net::ControlPartition{10, 20}};

    struct Row
    {
        std::string leaf;
        std::function<void(Cfg &)> apply;
    };
#define BUMP(leaf, field) Row{leaf, [](Cfg &c) { c.field += 1; }}
#define FLIP(leaf, field) Row{leaf, [](Cfg &c) { c.field = !c.field; }}
    std::vector<Row> rows = {
        {"/algo", [](Cfg &c) { c.algo = rl::Algo::kA2c; }},
        {"/strategy",
         [](Cfg &c) { c.strategy = dist::StrategyKind::kSyncIswitch; }},
        BUMP("/num_workers", num_workers),
        BUMP("/agent/hidden", agent.hidden),
        BUMP("/agent/lr", agent.lr),
        BUMP("/agent/gamma", agent.gamma),
        BUMP("/agent/steps_per_iter", agent.steps_per_iter),
        BUMP("/agent/batch_size", agent.batch_size),
        BUMP("/agent/replay_capacity", agent.replay_capacity),
        BUMP("/agent/warmup", agent.warmup),
        BUMP("/agent/target_sync_iters", agent.target_sync_iters),
        BUMP("/agent/grad_clip", agent.grad_clip),
        BUMP("/agent/eps_start", agent.eps_start),
        BUMP("/agent/eps_end", agent.eps_end),
        BUMP("/agent/eps_decay_iters", agent.eps_decay_iters),
        BUMP("/agent/noise_std", agent.noise_std),
        BUMP("/agent/tau", agent.tau),
        BUMP("/agent/value_coef", agent.value_coef),
        BUMP("/agent/entropy_coef", agent.entropy_coef),
        BUMP("/agent/gae_lambda", agent.gae_lambda),
        BUMP("/agent/ppo_clip", agent.ppo_clip),
        BUMP("/agent/init_log_std", agent.init_log_std),
        BUMP("/wire_model_bytes", wire_model_bytes),
        BUMP("/profile/jitter_cv", profile.jitter_cv),
        BUMP("/overhead/send_ns", overhead.send),
        BUMP("/overhead/recv_ns", overhead.recv),
        BUMP("/iswitch_overhead/send_ns", iswitch_overhead.send),
        BUMP("/iswitch_overhead/recv_ns", iswitch_overhead.recv),
        BUMP("/ps_sum_bytes_per_sec", ps_sum_bytes_per_sec),
        BUMP("/cluster/edge_link/bandwidth_bps",
             cluster.edge_link.bandwidth_bps),
        BUMP("/cluster/edge_link/propagation_ns",
             cluster.edge_link.propagation),
        BUMP("/cluster/edge_link/loss_prob", cluster.edge_link.loss_prob),
        BUMP("/cluster/uplink/bandwidth_bps", cluster.uplink.bandwidth_bps),
        BUMP("/cluster/uplink/propagation_ns", cluster.uplink.propagation),
        BUMP("/cluster/uplink/loss_prob", cluster.uplink.loss_prob),
        BUMP("/cluster/core_link/bandwidth_bps",
             cluster.core_link.bandwidth_bps),
        BUMP("/cluster/core_link/propagation_ns",
             cluster.core_link.propagation),
        BUMP("/cluster/core_link/loss_prob", cluster.core_link.loss_prob),
        BUMP("/cluster/per_rack", cluster.per_rack),
        BUMP("/cluster/racks_per_pod", cluster.racks_per_pod),
        BUMP("/cluster/accel/clock_hz", cluster.accel.clock_hz),
        BUMP("/cluster/accel/burst_bytes", cluster.accel.burst_bytes),
        BUMP("/cluster/accel/fixed_latency_ns", cluster.accel.fixed_latency),
        BUMP("/cluster/accel/num_slots", cluster.accel.num_slots),
        BUMP("/cluster/switch/forwarding_latency_ns",
             cluster.switch_cfg.forwarding_latency),
        BUMP("/cluster/worker_jobs/0", cluster.worker_jobs[0]),
        FLIP("/cluster/ha/with_backup", cluster.ha.with_backup),
        {"/cluster/ha/repl_mode",
         [](Cfg &c) {
             c.cluster.ha.repl_mode = core::ReplicationMode::kBatchedLazy;
         }},
        BUMP("/cluster/ha/staleness_window_ns", cluster.ha.staleness_window),
        BUMP("/cluster/ha/heartbeat_period_ns", cluster.ha.heartbeat_period),
        BUMP("/cluster/ha/miss_threshold", cluster.ha.miss_threshold),
        FLIP("/use_tree", use_tree),
        FLIP("/use_fat_tree", use_fat_tree),
        FLIP("/shard", shard),
        BUMP("/shard_threads", shard_threads),
        BUMP("/seed", seed),
        BUMP("/staleness_bound", staleness_bound),
        BUMP("/ps_shards", ps_shards),
        BUMP("/agg_threshold", agg_threshold),
        {"/precision",
         [](Cfg &c) { c.precision = net::Precision::kInt32; }},
        BUMP("/stop/max_iterations", stop.max_iterations),
        {"/stop/target_reward",
         [](Cfg &c) { c.stop.target_reward = 195.0; }},
        BUMP("/stop/min_episodes", stop.min_episodes),
        BUMP("/stop/max_sim_time_ns", stop.max_sim_time),
        BUMP("/curve_every", curve_every),
        BUMP("/faults/gilbert_elliott/p_good_to_bad", faults.ge.p_good_to_bad),
        BUMP("/faults/gilbert_elliott/p_bad_to_good", faults.ge.p_bad_to_good),
        BUMP("/faults/gilbert_elliott/loss_good", faults.ge.loss_good),
        BUMP("/faults/gilbert_elliott/loss_bad", faults.ge.loss_bad),
        BUMP("/faults/extra_loss", faults.extra_loss),
        BUMP("/faults/duplicate_prob", faults.duplicate_prob),
        BUMP("/faults/reorder_prob", faults.reorder_prob),
        BUMP("/faults/reorder_delay_ns", faults.reorder_delay),
        BUMP("/faults/link_down/0/worker", faults.link_down[0].worker),
        BUMP("/faults/link_down/0/down_at_ns", faults.link_down[0].down_at),
        BUMP("/faults/link_down/0/up_at_ns", faults.link_down[0].up_at),
        BUMP("/faults/crashes/0/worker", faults.crashes[0].worker),
        BUMP("/faults/crashes/0/crash_at_ns", faults.crashes[0].crash_at),
        BUMP("/faults/crashes/0/rejoin_at_ns", faults.crashes[0].rejoin_at),
        FLIP("/faults/crashes/0/announce", faults.crashes[0].announce),
        BUMP("/faults/stragglers/0/worker", faults.stragglers[0].worker),
        BUMP("/faults/stragglers/0/slowdown", faults.stragglers[0].slowdown),
        BUMP("/faults/stragglers/0/from_ns", faults.stragglers[0].from),
        BUMP("/faults/stragglers/0/until_ns", faults.stragglers[0].until),
        BUMP("/faults/switch_crashes/0/crash_at_ns",
             faults.switch_crashes[0].crash_at),
        BUMP("/faults/switch_crashes/0/rejoin_at_ns",
             faults.switch_crashes[0].rejoin_at),
        BUMP("/faults/control_partitions/0/from_ns",
             faults.control_partitions[0].from),
        BUMP("/faults/control_partitions/0/until_ns",
             faults.control_partitions[0].until),
        BUMP("/retx/timeout_ns", retx.timeout),
        BUMP("/retx/backoff", retx.backoff),
        BUMP("/retx/max_retries", retx.max_retries),
        BUMP("/retx/max_timeout_ns", retx.max_timeout),
    };
#undef BUMP
#undef FLIP
    for (std::size_t i = 0; i < dist::kNumComponents; ++i)
        rows.push_back(
            {std::string("/profile/mean_ns/") +
                 dist::componentName(static_cast<dist::IterComponent>(i)),
             [i](Cfg &c) { c.profile.mean[i] += 1; }});

    std::map<std::string, std::string> base_leaves;
    leaves(configToJson(base), "", base_leaves);
    std::set<SpecKey> keys{SpecKey::of(base)};
    std::set<std::string> covered;
    for (const Row &row : rows) {
        Cfg c = base;
        row.apply(c);
        std::map<std::string, std::string> got;
        leaves(configToJson(c), "", got);
        ASSERT_EQ(got.size(), base_leaves.size()) << row.leaf;
        for (const auto &[path, value] : base_leaves) {
            ASSERT_TRUE(got.count(path)) << row.leaf << " drops " << path;
            EXPECT_EQ(got.at(path) != value, path == row.leaf)
                << row.leaf << " vs " << path;
        }
        EXPECT_TRUE(keys.insert(SpecKey::of(c)).second) << row.leaf;
        covered.insert(row.leaf);
    }
    for (const auto &[path, value] : base_leaves)
        EXPECT_TRUE(covered.count(path)) << "no row changes " << path;
}

TEST(Runner, FaultySpecDoesNotAbortTheSweep)
{
    // One misconfigured spec (zero workers -> the job constructor
    // throws) must yield an errored RunResult in its slot while every
    // other spec completes normally.
    std::vector<ExperimentSpec> specs = smallBatch();
    ExperimentSpec broken =
        timingSpec(rl::Algo::kDqn, dist::StrategyKind::kSyncPs);
    broken.name = "broken/zero-workers";
    broken.config.num_workers = 0;
    specs.insert(specs.begin() + 1, broken);

    Runner runner(quietOpts(4));
    const auto results = runner.runAll(specs);
    ASSERT_EQ(results.size(), specs.size());
    EXPECT_FALSE(results[1].ok());
    EXPECT_FALSE(results[1].error.empty());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 1)
            continue;
        EXPECT_TRUE(results[i].ok()) << specs[i].name << ": "
                                     << results[i].error;
        EXPECT_GT(results[i].iterations, 0u);
    }

    // The report carries the failure alongside the successes.
    const json::Value report = runner.reportJson("unit");
    const json::Value *runs = report.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), specs.size());
    const json::Value *err = runs->items()[1].find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_FALSE(err->asString().empty());
    EXPECT_EQ(runs->items()[1].find("name")->asString(),
              "broken/zero-workers");
}

TEST(Runner, WatchdogFailureIsCapturedPerSpec)
{
    // A run that trips the simulated-time watchdog reports through
    // RunResult::error, not an exception out of the pool.
    ExperimentSpec spec =
        timingSpec(rl::Algo::kPpo, dist::StrategyKind::kSyncPs);
    spec.config.stop.max_iterations = 50;
    spec.config.stop.max_sim_time = 1; // 1ns: nothing can finish
    Runner runner(quietOpts(1));
    const dist::RunResult &res = runner.run(spec);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("watchdog"), std::string::npos) << res.error;
}

TEST(Runner, ReportContainsEveryExecutedRun)
{
    const std::vector<ExperimentSpec> specs = smallBatch();
    Runner runner(quietOpts(4));
    runner.runAll(specs);

    const json::Value report = runner.reportJson("unit");
    EXPECT_EQ(report.find("bench")->asString(), "unit");
    const json::Value *runs = report.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // First-submission order == spec order for a fresh runner.
        EXPECT_EQ(runs->items()[i].find("name")->asString(),
                  specs[i].name);
    }
}

} // namespace
} // namespace isw::harness
