/**
 * @file
 * Extension experiment: how much of iSwitch's advantage survives
 * against a *sharded* parameter server (the classic mitigation of the
 * central-link bottleneck the paper identifies in §2.3)? Sweeps the
 * sync PS's shard count (JobConfig::ps_shards, K = 1 is the paper's
 * central server) on the DQN and A2C wire sizes.
 */

#include <iostream>

#include "common.hh"

using namespace isw;

namespace {

harness::ExperimentSpec
shardSpec(rl::Algo algo, dist::StrategyKind k, std::size_t shards)
{
    harness::ExperimentSpec spec = harness::timingSpec(algo, k);
    spec.name += "/shards" + std::to_string(shards);
    spec.tags.push_back("shard-sweep");
    spec.config.ps_shards = shards;
    spec.config.stop.max_iterations = 20;
    return spec;
}

double
periter(rl::Algo algo, dist::StrategyKind k, std::size_t shards)
{
    return bench::runner().run(shardSpec(algo, k, shards)).perIterationMs();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBench(argc, argv);
    bench::printHeader(
        "Ablation — sharded parameter server vs in-switch aggregation");

    const std::size_t shard_counts[] = {1, 2, 4, 8};
    std::vector<harness::ExperimentSpec> specs;
    for (auto algo : {rl::Algo::kDqn, rl::Algo::kA2c}) {
        for (std::size_t shards : shard_counts)
            specs.push_back(
                shardSpec(algo, dist::StrategyKind::kSyncPs, shards));
        specs.push_back(shardSpec(algo, dist::StrategyKind::kSyncIswitch, 1));
    }
    bench::prefetch(specs);

    for (auto algo : {rl::Algo::kDqn, rl::Algo::kA2c}) {
        harness::banner(std::string(rl::algoName(algo)) +
                        " per-iteration time (ms)");
        harness::Table t({"Configuration", "per-iter (ms)", "vs PS"});
        const double ps = periter(algo, dist::StrategyKind::kSyncPs, 1);
        for (std::size_t shards : shard_counts) {
            const double s =
                periter(algo, dist::StrategyKind::kSyncPs, shards);
            t.row({shards == 1 ? std::string("PS (1 server)")
                               : "PS x" + std::to_string(shards) + " shards",
                   harness::fmt(s, 2), bench::speedupStr(ps / s)});
        }
        const double isw =
            periter(algo, dist::StrategyKind::kSyncIswitch, 1);
        t.row({"iSwitch", harness::fmt(isw, 2),
               bench::speedupStr(ps / isw)});
        t.print();
    }

    std::cout
        << "\nSharding buys back bandwidth but still pays 4 network hops,"
        << "\nK x N framework messages, and whole-vector aggregation;"
        << "\nin-switch aggregation keeps 2 hops, raw-protocol overheads,"
        << "\nand packet-granularity overlap.\n";
    bench::writeReport("ablation_sharded_ps");
    return 0;
}
