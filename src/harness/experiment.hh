/**
 * @file
 * Canonical experiment presets used by the bench binaries.
 *
 * Two run flavors:
 *  - timing runs: paper-sized wire models, a fixed number of
 *    iterations — they measure per-iteration time and its breakdown
 *    (Figures 4, 12; the per-iteration columns of Tables 4, 5).
 *  - learning runs: real training to a reward target — they measure
 *    iterations-to-converge and reward curves (Figures 13, 14; the
 *    iteration/reward columns of Tables 4, 5). Learning runs may scale
 *    down very large wire models (the 6.41 MB DQN gradient) so a full
 *    bench sweep finishes in CI time; end-to-end hours are composed as
 *    measured-iterations x timing-run per-iteration time, which is
 *    recorded in EXPERIMENTS.md.
 *
 * Set ISW_BENCH_SCALE=full for paper-sized learning runs and deeper
 * iteration budgets (slower, higher fidelity).
 */

#ifndef ISW_HARNESS_EXPERIMENT_HH
#define ISW_HARNESS_EXPERIMENT_HH

#include "dist/strategy.hh"
#include "harness/runner.hh"

namespace isw::harness {

/** Bench effort knobs, derived from the environment. */
struct BenchOptions
{
    bool full = false;                 ///< ISW_BENCH_SCALE=full
    std::uint64_t timing_iterations = 40;
    /** Learning-run wire scale for models >= 1 MB (1.0 when full). */
    double large_wire_scale = 0.125;
};

/** Read bench options from the environment. */
BenchOptions benchOptions();

/** Reward the local benchmark env counts as "trained". */
double targetRewardFor(rl::Algo algo);

/** Learning-run iteration cap (safety net above the reward target). */
std::uint64_t learnCapFor(rl::Algo algo, bool async, bool full);

/** Timing-run preset: paper wire size, fixed iterations. */
dist::JobConfig timingJob(rl::Algo algo, dist::StrategyKind k,
                          std::size_t workers = 4);

/** Learning-run preset: trains for real until the reward target. */
dist::JobConfig learningJob(rl::Algo algo, dist::StrategyKind k,
                            std::size_t workers = 4);

/**
 * Canonical spec name, e.g. "timing/DQN/Async-iSW/w4/tree" (spaces in
 * strategy names become '-' so names stay shell- and path-friendly).
 */
std::string specName(const std::string &flavor, rl::Algo algo,
                     dist::StrategyKind k, std::size_t workers,
                     bool tree = false);

/** timingJob() wrapped as a named, tagged ExperimentSpec. */
ExperimentSpec timingSpec(rl::Algo algo, dist::StrategyKind k,
                          std::size_t workers = 4, bool tree = false);

/**
 * Fabric shape for timing specs beyond the legacy star/tree pair.
 * Zero-valued size knobs keep the ClusterConfig defaults.
 */
struct FabricSpec
{
    bool tree = false;             ///< two-layer ToR + core
    bool fat_tree = false;         ///< three-layer ToR + AGG + core
    std::size_t per_rack = 0;      ///< workers per rack
    std::size_t racks_per_pod = 0; ///< ToRs per AGG (fat-tree)
    bool shard = false;            ///< run on the sharded engine
    unsigned shard_threads = 0;    ///< pool size, 0 = one per core
};

/**
 * timingSpec over an explicit fabric. Star/tree shapes with default
 * sizing produce exactly the legacy spec names ("…"/"…/tree");
 * fat-trees append "/fat[-rR][-pP]", and sharded runs append
 * "/sharded" (their reports are byte-identical to the serial spec of
 * the same shape — the suffix only keeps report files apart).
 */
ExperimentSpec timingSpec(rl::Algo algo, dist::StrategyKind k,
                          std::size_t workers, const FabricSpec &fabric);

/** learningJob() wrapped as a named, tagged ExperimentSpec. */
ExperimentSpec learningSpec(rl::Algo algo, dist::StrategyKind k,
                            std::size_t workers = 4);

} // namespace isw::harness

#endif // ISW_HARNESS_EXPERIMENT_HH
