/**
 * @file
 * Per-iteration breakdown metrics and run-level results, matching the
 * paper's evaluation metrics (§5.2): Final Average Reward, Number of
 * Iterations, Per-Iteration Time, End-to-End Training Time.
 */

#ifndef ISW_DIST_METRICS_HH
#define ISW_DIST_METRICS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/timing.hh"
#include "sim/stats.hh"

namespace isw::dist {

/** Accumulated per-component iteration times for one worker. */
class IterationMetrics
{
  public:
    /** Charge @p dur to component @p c for the current iteration. */
    void add(IterComponent c, sim::TimeNs dur)
    {
        acc_[static_cast<std::size_t>(c)].add(sim::toMillis(dur));
    }

    /** Mean time (ms) spent in @p c per iteration. */
    double meanMs(IterComponent c) const
    {
        return acc_[static_cast<std::size_t>(c)].mean();
    }

    /** Mean total iteration time (ms), summed over components. */
    double totalMeanMs() const;

    /** Fraction of the iteration spent in @p c. */
    double fraction(IterComponent c) const;

    /** Iterations recorded (count of the most-populated component). */
    std::size_t iterations() const;

    const sim::Accumulator &accumulator(IterComponent c) const
    {
        return acc_[static_cast<std::size_t>(c)];
    }

  private:
    std::array<sim::Accumulator, kNumComponents> acc_;
};

/** Result of one distributed training run. */
struct RunResult
{
    std::uint64_t iterations = 0;      ///< weight updates performed
    sim::TimeNs total_time = 0;        ///< simulated end-to-end time
    double final_avg_reward = 0.0;     ///< avg of last-10 episode rewards
    bool reached_target = false;       ///< stopped by reward target?
    IterationMetrics breakdown;        ///< representative worker breakdown
    sim::TimeSeries reward_curve;      ///< (sim time, avg reward)
    /**
     * Deterministic counters collected after the run (events, switch
     * buffers, slot pool, recovery, quantization, faults, failover;
     * async iSwitch adds gradients committed/skipped), so bench
     * binaries can consume every figure they print from a RunResult
     * instead of poking at live Job internals. Keys are stable
     * snake_case names, and every run of a strategy reports the same
     * key set: a subsystem the run does not use reports 0. See
     * JobBase::collectExtras.
     */
    std::map<std::string, double> extras;
    /**
     * Wall-clock-derived throughput metrics (events/sec, packets/sec,
     * allocator traffic from the instrumented PacketPool). Unlike
     * `extras` these are NOT deterministic — they depend on host speed
     * and pool warmth — so resultToJson excludes them; the runner
     * report emits them next to wall_clock_ms instead (DESIGN.md §9).
     */
    std::map<std::string, double> perf;
    /**
     * Non-empty when the run did not complete cleanly: the simulated-
     * time watchdog tripped (StopCondition::max_sim_time), the event
     * queue drained before the stop condition (a deadlocked strategy),
     * or the job constructor/runner caught an exception. Partial
     * metrics above remain valid up to the failure point.
     */
    std::string error;

    /** True when the run completed without a diagnostic error. */
    bool ok() const { return error.empty(); }

    /** Mean per-iteration wall time in milliseconds. */
    double
    perIterationMs() const
    {
        return iterations == 0
                   ? 0.0
                   : sim::toMillis(total_time) /
                         static_cast<double>(iterations);
    }
};

} // namespace isw::dist

#endif // ISW_DIST_METRICS_HH
