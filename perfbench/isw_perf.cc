/**
 * @file
 * isw_perf: runs one benchmark workload in this process and prints one
 * JSON object describing it on stdout (run.py aggregates, checks and
 * reports; see README.md).
 *
 *   isw_perf --workload NAME [--seed N] [--scale D] [--threads T]
 *            [--trace]
 *
 * Host time is measured only around public calls: dist::makeJob
 * (setup), JobBase::run (run) and job destruction (teardown), with a
 * host-speed probe timed before each job and after the last (see
 * probeOnce). Simulated results come from the RunResult each run
 * returns.
 *
 * --scale D divides every iteration budget by D (smoke runs).
 * --threads T sets shard_threads for the sharded workload.
 * --trace additionally records a span per job phase and replays each
 * layer's public API on inputs shaped like the workload's, timing the
 * median cost per operation (the layer unit costs of the attribution).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/accelerator.hh"
#include "dist/cluster.hh"
#include "dist/pipeline.hh"
#include "dist/strategy.hh"
#include "dist/transport.hh"
#include "harness/calibration.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "rl/agent.hh"
#include "rl/model_zoo.hh"

using namespace isw;
namespace json = harness::json;
using Clock = std::chrono::steady_clock;
using dist::StrategyKind;

namespace {

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t scale = 1;
    unsigned threads = 1;
    bool trace = false;
};

/** One job of a workload. */
struct JobSpec
{
    std::string name;
    dist::JobConfig cfg;
    /**
     * Index of the lossless twin whose simulated runtime places this
     * job's switch crash (lossy-HA jobs only; -1 otherwise).
     */
    int twin = -1;
    /** Reward the training run is judged against (learning runs). */
    double target_reward = std::nan("");
};

/** A complete span (Chrome trace-event "X" phase). */
struct Span
{
    std::string name;
    std::string cat;
    Clock::time_point begin;
    Clock::time_point end;
};

std::uint64_t
iters(std::uint64_t n, const Options &o)
{
    return std::max<std::uint64_t>(n / o.scale, 2);
}

std::string
jobName(rl::Algo algo, StrategyKind k)
{
    std::string s = std::string(rl::algoName(algo)) + "/" +
                    dist::strategyName(k);
    std::replace(s.begin(), s.end(), ' ', '-');
    return s;
}

// ---------------------------------------------------------------------
// Workloads. Each is single-process; only fat64-sharded uses threads.

/** Paper-wire DQN and A2C under the three sync strategies (Fig. 12). */
std::vector<JobSpec>
syncBigwire(const Options &o)
{
    std::vector<JobSpec> jobs;
    for (rl::Algo algo : {rl::Algo::kDqn, rl::Algo::kA2c}) {
        for (StrategyKind k : {StrategyKind::kSyncPs,
                               StrategyKind::kSyncAllReduce,
                               StrategyKind::kSyncIswitch}) {
            dist::JobConfig cfg = harness::timingSpec(algo, k).config;
            cfg.seed = o.seed;
            cfg.stop.max_iterations = iters(16, o);
            cfg.curve_every = 1;
            jobs.push_back({jobName(algo, k), cfg});
        }
    }
    return jobs;
}

/**
 * Real asynchronous training of PPO, A2C and DDPG, plus the paper-wire
 * timing runs Table 5 composes per-iteration time from. The training
 * runs have a fixed update budget instead of stopping at the reward
 * target, so their length does not depend on how fast a seed learns;
 * the iteration at which each first reaches the target is read from
 * its per-iteration reward curve.
 */
std::vector<JobSpec>
asyncLearn(const Options &o)
{
    std::vector<JobSpec> jobs;
    for (rl::Algo algo :
         {rl::Algo::kPpo, rl::Algo::kA2c, rl::Algo::kDdpg}) {
        for (StrategyKind k :
             {StrategyKind::kAsyncPs, StrategyKind::kAsyncIswitch}) {
            dist::JobConfig learn = harness::learningSpec(algo, k).config;
            const double target = learn.stop.target_reward;
            learn.seed = o.seed;
            learn.stop.target_reward = std::nan("");
            learn.stop.max_iterations = iters(100, o);
            learn.curve_every = 1;
            jobs.push_back({"learn/" + jobName(algo, k), learn, -1, target});

            dist::JobConfig timing = harness::timingSpec(algo, k).config;
            timing.seed = o.seed;
            timing.stop.max_iterations = iters(20, o);
            timing.curve_every = 1;
            jobs.push_back({"timing/" + jobName(algo, k), timing});
        }
    }
    return jobs;
}

/** 64 DDPG workers on an 8x8 fat-tree, on the sharded engine. */
std::vector<JobSpec>
fat64Sharded(const Options &o)
{
    harness::FabricSpec fabric;
    fabric.fat_tree = true;
    fabric.per_rack = 8;
    fabric.racks_per_pod = 4;
    fabric.shard = true;
    fabric.shard_threads = o.threads;
    std::vector<JobSpec> jobs;
    for (StrategyKind k : {StrategyKind::kSyncIswitch,
                           StrategyKind::kAsyncIswitch,
                           StrategyKind::kAsyncPs}) {
        dist::JobConfig cfg =
            harness::timingSpec(rl::Algo::kDdpg, k, 64, fabric).config;
        cfg.seed = o.seed;
        cfg.stop.max_iterations = iters(8, o);
        cfg.curve_every = 1;
        jobs.push_back({jobName(rl::Algo::kDdpg, k), cfg});
    }
    return jobs;
}

/**
 * Paper-wire A2C under three strategies, each as a lossless twin and
 * a lossy-HA twin: 1% iid loss, Gilbert-Elliott bursts, a per-harvest
 * backup switch and a permanent primary crash at 30% of the lossless
 * twin's simulated runtime.
 */
std::vector<JobSpec>
lossyFailover(const Options &o)
{
    std::vector<JobSpec> jobs;
    for (StrategyKind k : {StrategyKind::kSyncPs,
                           StrategyKind::kSyncIswitch,
                           StrategyKind::kAsyncIswitch}) {
        dist::JobConfig cfg = harness::timingSpec(rl::Algo::kA2c, k).config;
        cfg.seed = o.seed;
        cfg.stop.max_iterations = iters(24, o);
        cfg.curve_every = 1;
        const int twin = static_cast<int>(jobs.size());
        jobs.push_back({"lossless/" + jobName(rl::Algo::kA2c, k), cfg});

        dist::JobConfig lossy = cfg;
        lossy.faults.extra_loss = 0.01;
        lossy.faults.ge.p_good_to_bad = 0.02;
        lossy.faults.ge.p_bad_to_good = 0.25;
        lossy.faults.ge.loss_bad = 0.8;
        lossy.cluster.ha.with_backup = true;
        lossy.cluster.ha.repl_mode = core::ReplicationMode::kPerHarvest;
        jobs.push_back({"lossy-ha/" + jobName(rl::Algo::kA2c, k), lossy,
                        twin});
    }
    return jobs;
}

std::vector<JobSpec>
workloadJobs(const Options &o)
{
    if (o.workload == "sync-bigwire")
        return syncBigwire(o);
    if (o.workload == "async-learn")
        return asyncLearn(o);
    if (o.workload == "fat64-sharded")
        return fat64Sharded(o);
    if (o.workload == "lossy-failover")
        return lossyFailover(o);
    throw std::invalid_argument("unknown workload: " + o.workload);
}

// ---------------------------------------------------------------------
// Running and recording.

/** FNV-1a, printed as hex: a short stable fingerprint of a report. */
std::string
digest(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Aggregator folds across every switch of the job's fabric. */
std::uint64_t
foldsOf(const dist::Cluster &c)
{
    std::vector<core::ProgrammableSwitch *> sw(c.leaves.begin(),
                                               c.leaves.end());
    sw.insert(sw.end(), c.aggs.begin(), c.aggs.end());
    sw.push_back(c.root);
    sw.push_back(c.backup);
    std::sort(sw.begin(), sw.end());
    sw.erase(std::unique(sw.begin(), sw.end()), sw.end());
    std::uint64_t n = 0;
    for (core::ProgrammableSwitch *s : sw)
        if (s != nullptr)
            n += s->accelerator().packetsIngested();
    return n;
}

double
lgcMs(const dist::IterationMetrics &m)
{
    double ms = m.meanMs(dist::IterComponent::kOthers);
    for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
        const auto comp = static_cast<dist::IterComponent>(c);
        if (dist::isLgcComponent(comp))
            ms += m.meanMs(comp);
    }
    return ms;
}

/**
 * The paper's per-iteration time for this job's configuration (Tables
 * 4 and 5: four workers on the star, lossless, paper wire size), or
 * NaN when the paper has no such measurement.
 */
double
paperPerIterMs(const JobSpec &spec)
{
    const dist::JobConfig &c = spec.cfg;
    if (!std::isnan(spec.target_reward) || c.use_tree || c.use_fat_tree ||
        c.num_workers != 4 || !c.faults.empty() ||
        c.wire_model_bytes != rl::specFor(c.algo).paper_model_bytes)
        return std::nan("");
    switch (c.strategy) {
      case StrategyKind::kSyncPs:
      case StrategyKind::kSyncAllReduce:
      case StrategyKind::kSyncIswitch:
        return harness::paperSyncPerIterMs(c.algo, c.strategy);
      case StrategyKind::kAsyncPs:
      case StrategyKind::kAsyncIswitch:
        for (const harness::PaperAsyncRow &r : harness::paperAsyncTable())
            if (r.algo == c.algo)
                return c.strategy == StrategyKind::kAsyncPs
                           ? r.ps_periter_ms
                           : r.isw_periter_ms;
        break;
      default:
        break;
    }
    return std::nan("");
}

json::Value
mapJson(const std::map<std::string, double> &m)
{
    json::Value v = json::Value::object();
    for (const auto &[k, x] : m)
        v[k] = x;
    return v;
}

struct JobRecord
{
    json::Value out;
    std::string results_digest;
    std::vector<float> weights0;
    sim::TimeNs total_time = 0;
    std::uint64_t worker0_lgc = 0; ///< LGC stages worker 0 ran
};

/**
 * Host-speed probe: fixed work resembling the simulator's mix (an
 * event heap of small callbacks, a hash map, float buffer copies) that
 * uses no simulator code, so changes to src/ cannot move it. On a
 * shared virtual machine the host can run up to twice as slow at times
 * as neighbouring load comes and goes; run.py divides host times by the
 * probe times taken between the same process's jobs, which cancels
 * that drift (README.md, "Host-speed normalization").
 */
double
probeOnce()
{
    static std::atomic<std::uint64_t> sink{0};
    const auto t0 = Clock::now();
    using Event = std::pair<std::uint64_t, std::function<void()>>;
    const auto later = [](const Event &a, const Event &b) {
        return a.first > b.first;
    };
    std::vector<Event> heap;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::vector<float> acc(2048, 1.0f), src(2048, 0.5f);
    std::uint64_t x = 88172645463325252ULL, local = 0;
    for (int i = 0; i < 35000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::array<std::uint64_t, 4> v{x, x + 1, x + 2, x + 3};
        heap.emplace_back(x % 100000, [v, &local] { local += v[0] ^ v[3]; });
        std::push_heap(heap.begin(), heap.end(), later);
        if (heap.size() > 4096) {
            std::pop_heap(heap.begin(), heap.end(), later);
            heap.back().second();
            heap.pop_back();
        }
        map[x & 0x3fff] += static_cast<std::uint64_t>(i);
        if ((x & 7) == 0)
            map.erase((x >> 8) & 0x3fff);
        if ((i & 31) == 0) {
            const std::vector<float> copy(src);
            for (std::size_t k = 0; k < acc.size(); ++k)
                acc[k] += copy[k] * 0.25f;
        }
    }
    sink += local + static_cast<std::uint64_t>(acc[7]);
    return secondsSince(t0);
}

/**
 * The probe for a workload that runs on @p threads threads: each thread
 * does a slice of work and then waits for the others at a barrier,
 * window after window, as the sharded engine's domains do, so a core
 * taken away by a neighbour stalls every window here as it does there.
 */
double
probe(unsigned threads)
{
    if (threads <= 1)
        return probeOnce();
    static std::atomic<std::uint64_t> sink{0};
    std::barrier window(static_cast<std::ptrdiff_t>(threads));
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&window, t] {
            std::unordered_map<std::uint64_t, std::uint64_t> map;
            std::uint64_t x = 88172645463325252ULL + t, local = 0;
            for (int w = 0; w < 720; ++w) {
                for (int i = 0; i < 120; ++i) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    map[x & 0xfff] += x;
                    local += x >> 3;
                }
                window.arrive_and_wait();
            }
            sink += local + map.size();
        });
    }
    for (std::thread &t : pool)
        t.join();
    return secondsSince(t0);
}

/**
 * Set-ups per job. Set-up time is the median of this many makeJob
 * calls, each but the last destroyed untimed. Before each, malloc_trim
 * hands the memory earlier jobs freed back to the system: whether a
 * set-up could reuse it depends on the seed's allocation history, and
 * made set-up time bimodal across seeds (about 1.3 against 4 ms for a
 * DDPG job).
 */
constexpr int kSetups = 3;

JobRecord
runJob(const JobSpec &spec, std::vector<Span> &spans)
{
    std::unique_ptr<dist::JobBase> job;
    std::vector<double> setups;
    const auto start = Clock::now();
    Clock::time_point t0, t1;
    for (int i = 0; i < kSetups; ++i) {
        job.reset();
        malloc_trim(0);
        t0 = Clock::now();
        job = dist::makeJob(spec.cfg);
        t1 = Clock::now();
        setups.push_back(seconds(t0, t1));
    }
    std::sort(setups.begin(), setups.end());
    const dist::RunResult res = job->run();
    const auto t2 = Clock::now();

    // Inspection between run() and destruction is not timed.
    JobRecord rec;
    const std::uint64_t folds = foldsOf(job->cluster());
    job->workerAgent(0).getWeights(rec.weights0);

    const auto t3 = Clock::now();
    job.reset();
    const auto t4 = Clock::now();

    spans.push_back({spec.name, "job", start, t4});
    spans.push_back({"setup", "phase", start, t1});
    spans.push_back({"run", "phase", t1, t2});
    spans.push_back({"teardown", "phase", t3, t4});

    json::Value report = harness::resultToJson(res);
    if (spec.cfg.shard) {
        // Within a window the sharded engine reads other domains' reward
        // snapshots and the stop flag racily (JobBase::stopped_), so
        // under CPU contention the sampled rewards and the events run
        // after the stop depend on thread timing. The results digest
        // covers everything else, which does not.
        report["reward"] = 0;
        report["extras"]["events_executed"] = 0;
        report["extras"]["packets_sealed"] = 0;
        json::Value times = json::Value::array();
        for (const auto &p : res.reward_curve.points())
            times.push(p.t);
        report["curve"] = std::move(times);
    }
    rec.results_digest = digest(report.dump());
    rec.total_time = res.total_time;

    json::Value &o = rec.out;
    o = json::Value::object();
    o["name"] = spec.name;
    o["algo"] = rl::algoName(spec.cfg.algo);
    o["strategy"] = dist::strategyName(spec.cfg.strategy);
    o["learning"] = !std::isnan(spec.target_reward);
    o["target_reward"] = spec.target_reward;
    o["max_iterations"] = spec.cfg.stop.max_iterations;
    o["paper_per_iter_ms"] = paperPerIterMs(spec);
    o["crash_ms"] = spec.cfg.faults.switch_crashes.empty()
                        ? 0.0
                        : sim::toMillis(
                              spec.cfg.faults.switch_crashes[0].crash_at);
    o["setup_s"] = setups[kSetups / 2];
    o["run_s"] = seconds(t1, t2);
    o["teardown_s"] = seconds(t3, t4);
    o["error"] = res.error;
    o["iterations"] = res.iterations;
    o["sim_ms_per_iter"] = res.perIterationMs();
    o["total_sim_ns"] = res.total_time;
    o["folds"] = folds;
    // Worker 0's LGC/LWU counts stand for every worker's.
    const auto count = [&](dist::IterComponent c) {
        return static_cast<std::uint64_t>(
            res.breakdown.accumulator(c).count());
    };
    const std::size_t workers = spec.cfg.num_workers;
    const bool central = spec.cfg.strategy == StrategyKind::kAsyncPs;
    rec.worker0_lgc = count(dist::IterComponent::kForwardPass);
    o["lgc_count"] = rec.worker0_lgc * workers;
    o["lwu_count"] = central ? res.iterations
                             : count(dist::IterComponent::kWeightUpdate) *
                                   workers;
    o["sim_ga_ms"] =
        res.breakdown.meanMs(dist::IterComponent::kGradAggregation);
    o["sim_lgc_ms"] = lgcMs(res.breakdown);
    o["sim_lwu_ms"] =
        res.breakdown.meanMs(dist::IterComponent::kWeightUpdate);
    o["extras"] = mapJson(res.extras);
    o["perf"] = mapJson(res.perf);
    json::Value curve = json::Value::array();
    for (const auto &p : res.reward_curve.points()) {
        json::Value pt = json::Value::array();
        pt.push(p.t);
        pt.push(p.v);
        curve.push(std::move(pt));
    }
    o["curve"] = std::move(curve);
    return rec;
}

/** Largest element-wise difference between two weight vectors
 *  (infinite for mismatched sizes or NaN; JSON renders it null). */
double
maxAbsDiff(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return INFINITY;
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double diff = std::fabs(static_cast<double>(a[i]) - b[i]);
        if (std::isnan(diff))
            return INFINITY;
        d = std::max(d, diff);
    }
    return d;
}

// ---------------------------------------------------------------------
// Layer replays (--trace): each layer's public API in isolation, on
// inputs shaped like the workload's, timed as a median per operation.

constexpr int kReplayReps = 5;

template <class Fn>
double
medianNsPerOp(double ops, Fn &&fn)
{
    std::vector<double> v;
    for (int r = 0; r < kReplayReps; ++r) {
        const auto t0 = Clock::now();
        fn();
        v.push_back(secondsSince(t0) * 1e9 / ops);
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Kernel cost of one event: schedule a no-op at a spread of times,
 *  then run, with @p depth events pending at once. */
double
replayEvent(std::size_t depth)
{
    sim::Simulation s;
    return medianNsPerOp(static_cast<double>(depth), [&] {
        for (std::size_t i = 0; i < depth; ++i)
            s.after(static_cast<sim::TimeNs>((i * 2654435761ULL) % 1000003),
                    [] {});
        s.run();
    });
}

/** The gradient a job's workers send: logical floats + wire format. */
struct Shape
{
    std::vector<float> logical;
    dist::WireFormat fmt;
};

Shape
shapeOf(const dist::JobConfig &cfg)
{
    const std::unique_ptr<rl::Agent> agent =
        rl::makeAgent(cfg.algo, cfg.agent, 1, 2);
    Shape sh;
    sh.logical.resize(agent->paramCount());
    for (std::size_t i = 0; i < sh.logical.size(); ++i)
        sh.logical[i] = 0.001f * static_cast<float>(i % 997) - 0.5f;
    const std::uint64_t wire =
        cfg.wire_model_bytes == 0
            ? dist::WireFormat::minWireBytes(cfg.precision,
                                             sh.logical.size())
            : cfg.wire_model_bytes;
    sh.fmt = dist::WireFormat::forVector(sh.logical.size(), wire, false,
                                         cfg.precision);
    return sh;
}

/** Encode @p sh into @p chunks as sendVector does: padding segments
 *  beyond the logical data carry no words and encode nothing. */
void
encodeInto(const Shape &sh, dist::PrePostProcessor &ppp,
           std::vector<net::ChunkPayload> &chunks)
{
    const std::uint64_t segs = sh.fmt.segments();
    const std::uint64_t fps = sh.fmt.floatsPerSeg();
    chunks.resize(segs);
    for (std::uint64_t s = 0; s < segs; ++s) {
        chunks[s].seg = s;
        chunks[s].wire_floats = core::floatsInSeg(s, sh.fmt.wire_bytes);
        const std::uint64_t begin = s * fps;
        if (begin < sh.logical.size()) {
            const std::uint64_t end =
                std::min<std::uint64_t>(begin + fps, sh.logical.size());
            ppp.encodeSeg(std::span<const float>(sh.logical)
                              .subspan(begin, end - begin),
                          chunks[s]);
        }
    }
}

std::vector<net::ChunkPayload>
chunksOf(const Shape &sh)
{
    const auto ppp = dist::makePrePostProcessor(sh.fmt.precision);
    std::vector<net::ChunkPayload> chunks;
    encodeInto(sh, *ppp, chunks);
    return chunks;
}

/** Per-segment encode cost of one whole vector. */
double
replayEncode(const Shape &sh)
{
    const auto ppp = dist::makePrePostProcessor(sh.fmt.precision);
    std::vector<net::ChunkPayload> chunks;
    return medianNsPerOp(static_cast<double>(sh.fmt.segments()),
                         [&] { encodeInto(sh, *ppp, chunks); });
}

/** Per-segment reassembly cost of one whole vector. */
double
replayReassemble(const Shape &sh)
{
    const std::vector<net::ChunkPayload> chunks = chunksOf(sh);
    dist::VectorAssembler rx(sh.fmt);
    return medianNsPerOp(static_cast<double>(chunks.size()), [&] {
        rx.reset();
        for (const net::ChunkPayload &c : chunks)
            rx.offer(c);
    });
}

/**
 * Per-packet forwarding cost: one vector from worker 0 to worker 1
 * across a star switch (plain forwarding, not the aggregation plane),
 * minus the event-kernel share (@p event_ns per executed event), which
 * the sim layer already accounts for.
 */
double
replayForward(const Shape &sh, double event_ns)
{
    sim::Simulation s;
    dist::ClusterConfig cc;
    cc.num_workers = 2;
    dist::Cluster c = dist::buildStarCluster(s, cc);
    c.workers[1]->setReceiveHandler([](net::PacketPtr) {});
    const double segs = static_cast<double>(sh.fmt.segments());
    std::uint64_t tid = 0;
    std::uint64_t events = 0;
    const double ns = medianNsPerOp(segs, [&] {
        const std::uint64_t e0 = s.eventsExecuted();
        dist::sendVector(*c.workers[0], c.workers[1]->ip(),
                         dist::kWorkerPort, dist::kWorkerPort, 0, ++tid,
                         sh.logical, sh.fmt);
        s.run();
        events = s.eventsExecuted() - e0;
    });
    return std::max(0.0, ns - event_ns * static_cast<double>(events) / segs);
}

/** Per-contribution fold cost: every segment of one vector from each of
 *  @p h sources into an accelerator with threshold h, minus the
 *  event-kernel share. */
double
replayFold(const Shape &sh, std::uint32_t h, double event_ns)
{
    sim::Simulation s;
    core::Accelerator acc(s);
    acc.setThreshold(h);
    acc.setEmit([](std::uint64_t, core::SegState) {});
    const std::vector<net::ChunkPayload> chunks = chunksOf(sh);
    const double folds = static_cast<double>(chunks.size()) * h;
    std::uint64_t events = 0;
    const double ns = medianNsPerOp(folds, [&] {
        const std::uint64_t e0 = s.eventsExecuted();
        for (std::uint32_t src = 1; src <= h; ++src)
            for (const net::ChunkPayload &c : chunks)
                acc.ingest(c, src);
        s.run();
        events = s.eventsExecuted() - e0;
    });
    return std::max(0.0, ns - event_ns * static_cast<double>(events) / folds);
}

/**
 * Mean cost of an agent's first @p n LGC stages (env steps + NN
 * forward/backward), median over fresh agents: with @p n the LGC
 * count worker 0 ran, this is the job's own mix of replay-buffer
 * warm-up steps (DQN and DDPG) and learning steps.
 */
double
replayLgc(const dist::JobConfig &cfg, std::uint64_t seed, std::uint64_t n)
{
    std::unique_ptr<rl::Agent> agent;
    return medianNsPerOp(static_cast<double>(n), [&] {
        agent = rl::makeAgent(cfg.algo, cfg.agent, seed, seed + 1);
        for (std::uint64_t i = 0; i < n; ++i)
            agent->computeGradient();
    });
}

/** Cost of one LWU stage: the optimizer step on an @p h-worker sum. */
double
replayLwu(const dist::JobConfig &cfg, std::uint64_t seed)
{
    const std::unique_ptr<rl::Agent> agent =
        rl::makeAgent(cfg.algo, cfg.agent, seed, seed + 1);
    const ml::Vec &g = agent->computeGradient();
    const auto h = static_cast<std::uint32_t>(cfg.num_workers);
    std::vector<float> sum(g.begin(), g.end());
    for (float &x : sum)
        x *= static_cast<float>(h);
    return medianNsPerOp(4, [&] {
        for (int i = 0; i < 4; ++i)
            agent->applyAggregatedGradient(sum, h);
    });
}

/**
 * Replay every layer on the workload's gradient shapes, one layer at a
 * time (one span each). Jobs of one shape share a replay; the unit
 * costs are listed per job so run.py can weight them by each job's own
 * counts.
 */
json::Value
replayLayers(const Options &o, const std::vector<JobSpec> &jobs,
             const std::vector<JobRecord> &recs, std::vector<Span> &spans)
{
    std::vector<std::string> key_of;
    std::map<std::string, const dist::JobConfig *> cfg_of;
    std::map<std::string, Shape> shape_of;
    std::size_t depth = 0;
    for (const JobSpec &j : jobs) {
        const std::string key = std::string(rl::algoName(j.cfg.algo)) + "/" +
                                std::to_string(j.cfg.wire_model_bytes) +
                                "/" + std::to_string(j.cfg.num_workers);
        key_of.push_back(key);
        if (cfg_of.emplace(key, &j.cfg).second)
            shape_of[key] = shapeOf(j.cfg);
        depth = std::max<std::size_t>(
            depth, shape_of[key].fmt.segments() * j.cfg.num_workers);
    }
    depth = std::clamp<std::size_t>(depth, 1024, 1 << 16);

    const auto layer = [&spans](const char *name, auto &&fn) {
        const auto begin = Clock::now();
        fn();
        spans.push_back({std::string("replay.") + name, "replay", begin,
                         Clock::now()});
    };
    std::map<std::string, json::Value> cost;
    double event_ns = 0.0;
    layer("sim", [&] { event_ns = replayEvent(depth); });
    layer("net", [&] {
        for (const auto &[key, sh] : shape_of)
            cost[key]["net_ns_per_packet"] = replayForward(sh, event_ns);
    });
    layer("core", [&] {
        for (const auto &[key, sh] : shape_of) {
            // Contributions per segment at the first switch: the rack
            // on a fat-tree, every worker on the star.
            const dist::JobConfig &c = *cfg_of[key];
            const std::size_t h =
                c.use_fat_tree ? c.cluster.per_rack : c.num_workers;
            cost[key]["core_ns_per_fold"] =
                replayFold(sh, static_cast<std::uint32_t>(h), event_ns);
        }
    });
    layer("dist", [&] {
        for (const auto &[key, sh] : shape_of) {
            cost[key]["dist_ns_per_seg_encode"] = replayEncode(sh);
            cost[key]["dist_ns_per_seg_reassemble"] = replayReassemble(sh);
        }
    });
    // LGC cost depends on how far training has got, so it is replayed
    // per job, over as many stages as the job's worker 0 ran (capped).
    std::map<std::pair<std::string, std::uint64_t>, double> lgc_ns;
    layer("rl", [&] {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::uint64_t n =
                std::clamp<std::uint64_t>(recs[i].worker0_lgc, 1, 128);
            auto [it, fresh] = lgc_ns.try_emplace({key_of[i], n}, 0.0);
            if (fresh)
                it->second = replayLgc(jobs[i].cfg, o.seed, n);
        }
    });
    layer("ml", [&] {
        for (const auto &[key, c] : cfg_of)
            cost[key]["ml_ns_per_lwu"] = replayLwu(*c, o.seed);
    });

    json::Value per_job = json::Value::array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        json::Value u = cost[key_of[i]];
        u["name"] = jobs[i].name;
        u["rl_ns_per_lgc"] = lgc_ns.at(
            {key_of[i],
             std::clamp<std::uint64_t>(recs[i].worker0_lgc, 1, 128)});
        per_job.push(std::move(u));
    }
    json::Value out = json::Value::object();
    out["sim_ns_per_event"] = event_ns;
    out["jobs"] = std::move(per_job);
    return out;
}

// ---------------------------------------------------------------------

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--scale")
            o.scale = std::max<std::uint64_t>(std::stoull(value()), 1);
        else if (a == "--threads")
            o.threads = static_cast<unsigned>(
                std::max<unsigned long>(std::stoul(value()), 1));
        else if (a == "--trace")
            o.trace = true;
        else
            throw std::invalid_argument("unknown argument: " + a);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    return o;
}

int
run(const Options &o)
{
    std::vector<JobSpec> jobs = workloadJobs(o);
    unsigned threads = 1;
    for (const JobSpec &j : jobs)
        if (j.cfg.shard)
            threads = std::max(threads, j.cfg.shard_threads);

    // Probes bracket every job: one-thread probes normalize setup (and
    // single-threaded runs), probes as wide as the workload normalize
    // multi-threaded runs.
    json::Value probes = json::Value::array();
    json::Value wide_probes = json::Value::array();
    const auto probeNow = [&] {
        probes.push(probe(1));
        if (threads > 1)
            wide_probes.push(probe(threads));
    };
    std::vector<Span> spans;
    std::vector<JobRecord> recs;
    const auto t0 = Clock::now();
    for (JobSpec &spec : jobs) {
        probeNow();
        if (spec.twin >= 0) {
            const sim::TimeNs healthy = recs.at(spec.twin).total_time;
            spec.cfg.faults.switch_crashes.push_back(
                net::SwitchCrash{healthy * 3 / 10, /*rejoin_at=*/0});
            spec.cfg.stop.max_sim_time = healthy * 100 + sim::kSec;
        }
        recs.push_back(runJob(spec, spans));
    }
    probeNow();
    spans.insert(spans.begin(), {o.workload, "workload", t0, Clock::now()});

    json::Value out = json::Value::object();
    out["workload"] = o.workload;
    out["seed"] = o.seed;
    out["scale"] = o.scale;
    out["threads"] = static_cast<std::uint64_t>(threads);
    out["probe_s"] = std::move(probes);
    out["wide_probe_s"] = std::move(wide_probes);
    json::Value jobs_json = json::Value::array();
    std::string results;
    for (JobRecord &r : recs) {
        results += r.results_digest;
        jobs_json.push(std::move(r.out));
    }
    out["jobs"] = std::move(jobs_json);
    out["results_digest"] = digest(results);

    // Sync strategies are mathematically equivalent: worker 0 ends with
    // the same weights under PS, AR and iSW (per algorithm).
    json::Value wdiff = json::Value::object();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (dist::isAsyncStrategy(jobs[i].cfg.strategy) ||
            !jobs[i].cfg.faults.empty() ||
            jobs[i].cfg.strategy == StrategyKind::kSyncPs)
            continue;
        for (std::size_t r = 0; r < jobs.size(); ++r) {
            if (jobs[r].cfg.strategy == StrategyKind::kSyncPs &&
                jobs[r].cfg.algo == jobs[i].cfg.algo &&
                jobs[r].cfg.faults.empty())
                wdiff[jobs[i].name] =
                    maxAbsDiff(recs[r].weights0, recs[i].weights0);
        }
    }
    out["weights_max_diff_vs_ps"] = std::move(wdiff);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

    if (o.trace) {
        out["replay"] = replayLayers(o, jobs, recs, spans);
        // Trace-event timestamps: microseconds since the first span.
        const auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - t0).count();
        };
        json::Value sp = json::Value::array();
        for (const Span &s : spans) {
            json::Value e = json::Value::object();
            e["name"] = s.name;
            e["cat"] = s.cat;
            e["ts"] = us(s.begin);
            e["dur"] = us(s.end) - us(s.begin);
            sp.push(std::move(e));
        }
        out["spans"] = std::move(sp);
    }
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "isw_perf: %s\n", e.what());
        return 2;
    }
}
