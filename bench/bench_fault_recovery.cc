/**
 * @file
 * Robustness experiment (extension; not a paper figure): training
 * throughput and recovery behavior under injected faults. Sweeps the
 * fault-plan scenarios — iid loss, Gilbert–Elliott bursts, and a
 * silent mid-training crash + rejoin — across representative
 * strategies, reporting the per-iteration slowdown versus the
 * lossless run plus the recovery counters (retransmissions, Help
 * requests, forced broadcasts, completed recoveries).
 *
 * Everything here is simulated-deterministic: the same binary on the
 * same seed reproduces every iteration count and counter exactly,
 * which is what lets CI diff BENCH_fault_recovery.json against the
 * committed baseline.
 */

#include <iostream>

#include "common.hh"

using namespace isw;

namespace {

constexpr std::uint64_t kIters = 15;

enum class Scenario { kLossless, kIidLoss, kBursty, kCrash };

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::kLossless: return "lossless";
      case Scenario::kIidLoss: return "iid-1%";
      case Scenario::kBursty: return "ge-burst";
      case Scenario::kCrash: return "crash";
    }
    return "?";
}

/** Apply @p s to @p cfg. Crash windows are placed relative to
 *  @p lossless_time (30%..55% of the healthy runtime). */
void
applyScenario(dist::JobConfig &cfg, Scenario s, sim::TimeNs lossless_time)
{
    switch (s) {
      case Scenario::kLossless:
        break;
      case Scenario::kIidLoss:
        cfg.faults.extra_loss = 0.01;
        break;
      case Scenario::kBursty:
        cfg.faults.ge.p_good_to_bad = 0.02;
        cfg.faults.ge.p_bad_to_good = 0.25;
        cfg.faults.ge.loss_bad = 0.8;
        break;
      case Scenario::kCrash:
        cfg.faults.crashes.push_back(
            net::WorkerCrash{2, lossless_time * 3 / 10,
                             lossless_time * 11 / 20, /*announce=*/false});
        break;
    }
    if (s != Scenario::kLossless) {
        // Diagnose instead of hanging if recovery ever regresses.
        cfg.stop.max_sim_time = lossless_time * 100 + sim::kSec;
    }
}

harness::ExperimentSpec
faultSpec(rl::Algo algo, dist::StrategyKind k, Scenario s,
          sim::TimeNs lossless_time)
{
    harness::ExperimentSpec spec = harness::timingSpec(algo, k);
    spec.name += std::string("/fault-") + scenarioName(s);
    spec.tags.push_back("fault-recovery");
    spec.config.stop.max_iterations = kIters;
    applyScenario(spec.config, s, lossless_time);
    return spec;
}

const char *
replModeName(core::ReplicationMode m)
{
    return m == core::ReplicationMode::kPerHarvest ? "per-harvest"
                                                   : "batched-lazy";
}

/** Failover panel (DESIGN.md §16): a backup switch shadows the
 *  primary, which fail-stops at 30% of the healthy runtime and never
 *  returns; heartbeat misses promote the backup mid-round. */
harness::ExperimentSpec
failoverSpec(rl::Algo algo, dist::StrategyKind k, core::ReplicationMode m,
             sim::TimeNs lossless_time)
{
    harness::ExperimentSpec spec = harness::timingSpec(algo, k);
    spec.name += std::string("/failover-") + replModeName(m);
    spec.tags.push_back("fault-recovery");
    spec.config.stop.max_iterations = kIters;
    spec.config.cluster.ha.with_backup = true;
    spec.config.cluster.ha.repl_mode = m;
    // A window comparable to the round time, so lazy mode visibly
    // coalesces the per-accept stream (at real wire sizes the 2 ms
    // default expires between contributions and degenerates to
    // per-harvest behavior).
    if (m == core::ReplicationMode::kBatchedLazy)
        spec.config.cluster.ha.staleness_window = 10 * sim::kMsec;
    spec.config.faults.switch_crashes.push_back(
        net::SwitchCrash{lossless_time * 3 / 10, /*rejoin_at=*/0});
    spec.config.stop.max_sim_time = lossless_time * 100 + sim::kSec;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::printHeader("Fault injection — recovery cost across strategies");

    const std::array<dist::StrategyKind, 5> kinds{
        dist::StrategyKind::kSyncPs, dist::StrategyKind::kSyncAllReduce,
        dist::StrategyKind::kSyncIswitch, dist::StrategyKind::kAsyncPs,
        dist::StrategyKind::kAsyncIswitch};
    const std::array<Scenario, 4> scenarios{
        Scenario::kLossless, Scenario::kIidLoss, Scenario::kBursty,
        Scenario::kCrash};
    const rl::Algo algo = rl::Algo::kPpo;

    // The lossless runs anchor both the slowdown column and the crash
    // window placement, so they must land first.
    std::vector<harness::ExperimentSpec> probes;
    for (auto k : kinds)
        probes.push_back(faultSpec(algo, k, Scenario::kLossless, 0));
    bench::prefetch(probes);

    std::vector<harness::ExperimentSpec> specs;
    for (auto k : kinds) {
        const sim::TimeNs healthy =
            bench::runner()
                .run(faultSpec(algo, k, Scenario::kLossless, 0))
                .total_time;
        for (Scenario s : scenarios)
            specs.push_back(faultSpec(algo, k, s, healthy));
    }
    bench::prefetch(specs);

    for (auto k : kinds) {
        harness::banner(std::string(dist::strategyName(k)) +
                        " under injected faults (PPO, 4 workers)");
        harness::Table t({"Scenario", "per-iter (ms)", "slowdown", "retx",
                          "help/fbcast", "recoveries", "gave up"});
        const sim::TimeNs healthy =
            bench::runner()
                .run(faultSpec(algo, k, Scenario::kLossless, 0))
                .total_time;
        const double base_ms =
            bench::runner()
                .run(faultSpec(algo, k, Scenario::kLossless, 0))
                .perIterationMs();
        for (Scenario s : scenarios) {
            const dist::RunResult &res =
                bench::runner().run(faultSpec(algo, k, s, healthy));
            const double ms = res.perIterationMs();
            t.row({scenarioName(s), harness::fmt(ms, 2),
                   s == Scenario::kLossless
                       ? "1.00x"
                       : bench::speedupStr(ms / base_ms),
                   harness::fmt(res.extras.at("retx_segments"), 0),
                   harness::fmt(res.extras.at("help_requests") +
                                    res.extras.at("fbcasts"),
                                0),
                   harness::fmt(res.extras.at("recoveries"), 0),
                   harness::fmt(res.extras.at("retx_gave_up"), 0)});
        }
        t.print();
    }

    const std::array<dist::StrategyKind, 3> ha_kinds{
        dist::StrategyKind::kSyncPs, dist::StrategyKind::kSyncIswitch,
        dist::StrategyKind::kAsyncIswitch};
    const std::array<core::ReplicationMode, 2> modes{
        core::ReplicationMode::kPerHarvest,
        core::ReplicationMode::kBatchedLazy};

    std::vector<harness::ExperimentSpec> ha_specs;
    for (auto k : ha_kinds) {
        const sim::TimeNs healthy =
            bench::runner()
                .run(faultSpec(algo, k, Scenario::kLossless, 0))
                .total_time;
        for (auto m : modes)
            ha_specs.push_back(failoverSpec(algo, k, m, healthy));
    }
    bench::prefetch(ha_specs);

    harness::banner(
        "Mid-training switch failover — replicated backup (PPO, 4 workers)");
    harness::Table ht({"Strategy", "repl mode", "per-iter (ms)", "slowdown",
                       "detect (ms)", "repl frames", "sw drops"});
    for (auto k : ha_kinds) {
        const sim::TimeNs healthy =
            bench::runner()
                .run(faultSpec(algo, k, Scenario::kLossless, 0))
                .total_time;
        const double base_ms =
            bench::runner()
                .run(faultSpec(algo, k, Scenario::kLossless, 0))
                .perIterationMs();
        // Crash-to-promotion latency: promote time minus crash time.
        const double crash_ms =
            static_cast<double>(healthy * 3 / 10) / 1e6;
        for (auto m : modes) {
            const dist::RunResult &res =
                bench::runner().run(failoverSpec(algo, k, m, healthy));
            const double ms = res.perIterationMs();
            ht.row({dist::strategyName(k), replModeName(m),
                    harness::fmt(ms, 2), bench::speedupStr(ms / base_ms),
                    harness::fmt(
                        res.extras.at("failover_promote_ms") - crash_ms, 2),
                    harness::fmt(res.extras.at("failover_repl_frames"), 0),
                    harness::fmt(res.extras.at("fault_switch_drops"), 0)});
        }
    }
    ht.print();

    std::cout << "\nEvery strategy completes every scenario: the shared"
              << "\nretransmission layer (and iSwitch's Help/FBcast path)"
              << "\nturns loss and silent partitions into bounded latency"
              << "\ninstead of hangs. Lossless rows schedule zero recovery"
              << "\nevents and stay byte-identical to a faultless build."
              << "\nThe failover panel adds a fail-stop switch crash: the"
              << "\nbackup's heartbeat monitor promotes it mid-round and"
              << "\ntraining finishes from the replicated state — the cost"
              << "\nis one promotion delay, not a lost run.\n";
    bench::writeReport("fault_recovery");
    return 0;
}
