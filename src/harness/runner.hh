/**
 * @file
 * Experiment runner: declarative specs, parallel batch execution, and
 * machine-readable reports.
 *
 * Every `isw::sim::Simulation` is a fully self-contained world (clock,
 * event queue, RNG, logger), so independent runs are
 * embarrassingly parallel. The Runner exploits that: bench binaries
 * declare a batch of ExperimentSpecs, the Runner executes each spec's
 * Job in its own Simulation on a thread pool (`--jobs N` /
 * `ISW_BENCH_JOBS`, default hardware concurrency), memoizes results
 * under a typed key so identical specs execute exactly once, and
 * returns results in deterministic spec order regardless of
 * completion order. Parallel and serial execution produce
 * byte-identical results (same seeds => same worlds); the parity test
 * in tests/harness/runner_test.cc enforces this.
 */

#ifndef ISW_HARNESS_RUNNER_HH
#define ISW_HARNESS_RUNNER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/strategy.hh"
#include "harness/json.hh"
#include "sim/log.hh"

namespace isw::harness {

/** One named, self-contained experiment: a job config plus metadata. */
struct ExperimentSpec
{
    /** Display/report name, e.g. "timing/DQN/PS/w4". */
    std::string name;
    /** The complete run description (includes its own seed), and so
     *  the run's identity. */
    dist::JobConfig config;
    /** Free-form labels carried into the JSON report. */
    std::vector<std::string> tags;
};

/**
 * Memoization key: the compact dump of configToJson(cfg), i.e. the
 * report's config block, so the key and the report cannot disagree on
 * what makes a run. Equal configs share a key; doubles print
 * round-trip exact and integers exactly up to 2^53, while NaN and
 * infinities all print as null (only StopCondition::target_reward
 * uses NaN, meaning "no target").
 */
struct SpecKey
{
    std::string text;

    static SpecKey of(const dist::JobConfig &cfg);

    auto operator<=>(const SpecKey &) const = default;
};

/** Runner construction knobs. */
struct RunnerOptions
{
    /**
     * Worker threads for batch execution. 0 = the ISW_BENCH_JOBS
     * environment variable, falling back to hardware concurrency.
     */
    std::size_t jobs = 0;
    /**
     * Optional destination for job log lines (each job logs at its
     * Simulation's default level, kWarn). Lines arrive serialized
     * (one writer at a time) and tagged with the spec name; default is
     * stderr.
     */
    sim::Logger::Sink log_sink;
};

/**
 * Executes ExperimentSpecs, each in its own isolated Simulation.
 *
 * Results are memoized across run()/runAll() calls: submitting a spec
 * whose config was already executed returns the cached
 * RunResult without re-running, and duplicate specs inside one batch
 * are deduplicated *before* submission so shared timing runs execute
 * once. Not copyable; share one Runner per bench process.
 */
class Runner
{
  public:
    explicit Runner(RunnerOptions opts = {});
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Resolved thread-pool width. */
    std::size_t jobs() const { return jobs_; }

    /**
     * Execute one spec (or return its cached result). The reference
     * stays valid for the Runner's lifetime.
     */
    const dist::RunResult &run(const ExperimentSpec &spec);

    /**
     * Execute a batch on the thread pool. Returns one result per
     * input spec, in spec order, duplicates and already-cached specs
     * served from the memo. Never throws on a job failure: a job that
     * throws or errors comes back with RunResult::error set (and lands
     * in the report's "error" field).
     */
    std::vector<dist::RunResult> runAll(
        const std::vector<ExperimentSpec> &specs);

    /** Number of jobs actually executed (cache misses) so far. */
    std::size_t executed() const;

    /**
     * Write `<dir>/BENCH_<bench_name>.json` describing every run this
     * Runner executed, in first-submission order: per run the spec
     * name, tags, config, per-iteration ms, iterations, reward,
     * simulated time, wall-clock ms, component breakdown, extras, and
     * reward curve. Returns the path written.
     */
    std::string writeReport(const std::string &bench_name,
                            const std::string &dir = ".") const;

    /** The report payload (what writeReport serializes). */
    json::Value reportJson(const std::string &bench_name) const;

  private:
    struct Entry;

    /** Find-or-create the cache entry; fresh=true if this caller must
     *  execute it. */
    std::pair<std::shared_ptr<Entry>, bool> lookup(
        const ExperimentSpec &spec);
    void execute(Entry &e);
    void waitDone(Entry &e);

    RunnerOptions opts_;
    std::size_t jobs_ = 1;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<SpecKey, std::shared_ptr<Entry>> cache_;
    std::uint64_t next_order_ = 0;

    std::mutex log_mu_; ///< serializes tagged job log lines
};

/**
 * schema_version of the Runner and switch-sharing reports. 2: every
 * run of a strategy reports one fixed extras (and fabric) key set, and
 * the config block holds every JobConfig field.
 */
inline constexpr int kReportSchemaVersion = 2;

/** Serialize a RunResult (schema: iterations, per_iter_ms, reward,
 *  reached_target, total_sim_ns, breakdown, extras, curve). */
json::Value resultToJson(const dist::RunResult &r);

/**
 * Rebuild a RunResult from resultToJson output. The breakdown comes
 * back as one sample per component (means preserved; counts and
 * variances are not serialized).
 */
dist::RunResult resultFromJson(const json::Value &v);

/**
 * Serialize every JobConfig field that reaches the run, nested like
 * the struct (the three ClusterConfig fields JobBase derives from the
 * job stay out). SpecKey::of is its compact dump.
 */
json::Value configToJson(const dist::JobConfig &cfg);

} // namespace isw::harness

#endif // ISW_HARNESS_RUNNER_HH
