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
    reseeded.seed = 99;

    EXPECT_FALSE(SpecKey::of(spec.normalizedConfig()) ==
                 SpecKey::of(reseeded.normalizedConfig()));

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
