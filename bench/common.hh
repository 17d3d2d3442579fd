/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every bench declares a batch of harness::ExperimentSpecs, submits
 * it to the process-wide Runner (parallel across isolated
 * Simulations, memoized, deduplicated), then consumes RunResults to
 * build its tables. Finish with bench::writeReport(<name>) so the
 * machine-readable BENCH_<name>.json lands next to the human output.
 */

#ifndef ISW_BENCH_COMMON_HH
#define ISW_BENCH_COMMON_HH

#include <array>
#include <string>
#include <vector>

#include "harness/calibration.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

namespace isw::bench {

/** All four paper benchmarks in Table 1 order. */
inline const std::array<rl::Algo, 4> kAlgos{rl::Algo::kDqn, rl::Algo::kA2c,
                                            rl::Algo::kPpo, rl::Algo::kDdpg};

/** The three synchronous strategies in paper order. */
inline const std::array<dist::StrategyKind, 3> kSyncStrategies{
    dist::StrategyKind::kSyncPs, dist::StrategyKind::kSyncAllReduce,
    dist::StrategyKind::kSyncIswitch};

/**
 * Parse the standard bench command line (`--jobs N` plus
 * @p extra_known flags) and configure the shared runner before first
 * use. Returns the parsed Cli for bench-specific flags.
 */
harness::Cli initBench(int argc, const char *const *argv,
                       std::vector<std::string> extra_known = {});

/** The process-wide experiment runner (created on first use). */
harness::Runner &runner();

/** Submit a batch for parallel execution; results stay memoized. */
void prefetch(const std::vector<harness::ExperimentSpec> &specs);

/** Per-iteration ms of the standard paper-wire timing run (memoized). */
double perIterMs(rl::Algo algo, dist::StrategyKind k,
                 std::size_t workers = 4, bool tree = false);

/** Full result of the standard timing run (memoized). */
const dist::RunResult &timingResult(rl::Algo algo, dist::StrategyKind k,
                                    std::size_t workers = 4,
                                    bool tree = false);

/** Emit BENCH_<name>.json describing every run this process made. */
void writeReport(const std::string &name);

/** Print the standard bench header (scale mode, jobs, etc.). */
void printHeader(const std::string &what);

/** "x.xx" ratio formatting with a trailing 'x'. */
std::string speedupStr(double s);

} // namespace isw::bench

#endif // ISW_BENCH_COMMON_HH
