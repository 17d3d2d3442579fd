/**
 * @file
 * Multi-job switch sharing (DESIGN.md §11): admit several independent
 * training jobs onto ONE programmable switch, partition the bounded
 * aggregator slot pool between them, and drive them concurrently on a
 * single Simulation.
 *
 * Each job gets a contiguous slice of the fabric's worker hosts, a
 * job id 1..K (the switch keeps one row of aggregation knobs per id;
 * an owned job is job 0), and a share of the switch's aggregator
 * slots proportional to its tensor segment count (min one slot per
 * job). The scheduler reports per-job RunResults plus fabric-level
 * fairness, contention, and aggregate-throughput counters.
 */

#ifndef ISW_DIST_MULTIJOB_HH
#define ISW_DIST_MULTIJOB_HH

#include <map>
#include <string>
#include <vector>

#include "dist/strategy.hh"

namespace isw::dist {

/** A shared-switch schedule: K jobs on one star fabric. */
struct MultiJobConfig
{
    /**
     * The co-scheduled jobs (iSwitch strategies only — PS/AllReduce
     * never touch the aggregation plane). Each entry's num_workers
     * claims that many hosts on the shared fabric; per-job faults and
     * tree clusters are owned-world features and are rejected.
     */
    std::vector<JobConfig> jobs;
    /**
     * Shared-fabric knobs (links + switch + accelerator). num_workers,
     * worker_jobs, and with_ps are derived from `jobs` and ignored.
     * accel.num_slots > 0 bounds the aggregator pool; it is split
     * between the jobs proportionally to their tensor segment counts
     * (largest-remainder apportionment, at least one slot each, every
     * slot assigned), so it must be at least K.
     */
    ClusterConfig fabric;
    std::uint64_t seed = 1;
};

/** What runSharedJobs returns: per-job results + fabric metrics. */
struct MultiJobResult
{
    std::vector<RunResult> jobs;
    /**
     * Fabric-level metrics (deterministic, same spirit as
     * RunResult::extras), always this key set: "jobs", "jain_fairness",
     * "aggregate_iterations_per_sec", "slot_capacity" (0 = unbounded
     * pool), "slot_contention_events", "slot_stale_drops",
     * "slot_busy_drops", "slot_unadmitted", "slot_reclaimed".
     */
    std::map<std::string, double> fabric;
};

/**
 * Build the shared fabric, partition the slot pool, run every job to
 * its own stop condition on one Simulation, and collect results.
 * Throws std::invalid_argument on an inadmissible schedule (no jobs,
 * more jobs than slots, a non-iSwitch strategy, an async job whose
 * quota cannot cover its tensor, ...).
 */
MultiJobResult runSharedJobs(const MultiJobConfig &cfg);

} // namespace isw::dist

#endif // ISW_DIST_MULTIJOB_HH
