#include "dist/multijob.hh"

#include <algorithm>
#include <stdexcept>

#include "net/packet_pool.hh"

namespace isw::dist {

namespace {

/** Jain's fairness index over per-job throughputs (1 = perfectly
 *  fair, 1/K = one job starves the rest). Degenerate inputs (all
 *  zero) report 1: nobody is being treated unequally. */
double
jainIndex(const std::vector<double> &xs)
{
    double sum = 0.0, sq = 0.0;
    for (double x : xs) {
        sum += x;
        sq += x * x;
    }
    if (sq == 0.0)
        return 1.0;
    return (sum * sum) / (static_cast<double>(xs.size()) * sq);
}

} // namespace

MultiJobResult
runSharedJobs(const MultiJobConfig &cfg)
{
    const std::size_t k = cfg.jobs.size();
    if (k == 0)
        throw std::invalid_argument("runSharedJobs: no jobs");
    if (k > 200)
        throw std::invalid_argument(
            "runSharedJobs: job ids are 8-bit (at most 200 jobs)");

    // One world, one star fabric holding every job's workers, tagged
    // so the switch broadcasts each job's results only to its own
    // members. Its frames come from a pool of its own, declared first
    // so the world unwinds into it and it is freed with the world.
    net::PacketPool frames;
    const net::PacketPool::Scope frames_scope(frames);
    sim::Simulation sim(cfg.seed);
    ClusterConfig fabric_cfg = cfg.fabric;
    fabric_cfg.with_ps = false;
    fabric_cfg.ps_shards = 1;
    fabric_cfg.num_workers = 0;
    fabric_cfg.worker_jobs.clear();
    for (std::size_t i = 0; i < k; ++i) {
        fabric_cfg.num_workers += cfg.jobs[i].num_workers;
        fabric_cfg.worker_jobs.insert(fabric_cfg.worker_jobs.end(),
                                      cfg.jobs[i].num_workers,
                                      static_cast<std::uint8_t>(i + 1));
    }
    Cluster fabric = buildStarCluster(sim, fabric_cfg);

    // Partition the bounded slot pool proportionally to each job's
    // tensor segment count: a job streaming a 100 MB model through the
    // same window as a 1 MB job starves under an even split. Every job
    // keeps at least one slot; the spare slots are apportioned by
    // largest remainder (ties: higher fraction, then lower index), so
    // the layout is deterministic and sums to exactly `slots`. An
    // unbounded pool needs no partition (quota 0 = "no streaming
    // window required").
    const std::size_t slots = fabric_cfg.accel.num_slots;
    std::vector<std::uint32_t> quotas(k, 0);
    if (slots > 0) {
        if (slots < k)
            throw std::invalid_argument(
                "runSharedJobs: fewer aggregator slots than jobs");
        std::vector<std::uint64_t> segs(k);
        std::uint64_t total_segs = 0;
        for (std::size_t i = 0; i < k; ++i) {
            // wire_model_bytes == 0 means "actual model size", unknown
            // until the job is built; assume 1 MiB (same convention as
            // the event guard below).
            const std::uint64_t wire = cfg.jobs[i].wire_model_bytes == 0
                                           ? (std::uint64_t{1} << 20)
                                           : cfg.jobs[i].wire_model_bytes;
            segs[i] = core::segCount(wire);
            total_segs += segs[i];
        }
        const auto spare = static_cast<std::uint64_t>(slots - k);
        std::vector<double> frac(k);
        std::uint64_t assigned = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const double exact = static_cast<double>(spare) *
                                 static_cast<double>(segs[i]) /
                                 static_cast<double>(total_segs);
            const auto base = static_cast<std::uint64_t>(exact);
            quotas[i] = static_cast<std::uint32_t>(1 + base);
            frac[i] = exact - static_cast<double>(base);
            assigned += base;
        }
        std::vector<std::size_t> order(k);
        for (std::size_t i = 0; i < k; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&frac](std::size_t a, std::size_t b) {
                             return frac[a] > frac[b];
                         });
        for (std::uint64_t r = 0; r < spare - assigned; ++r)
            ++quotas[order[r % k]];
        auto &pool = fabric.root->accelerator().pool();
        std::size_t first = 0;
        for (std::size_t i = 0; i < k; ++i) {
            pool.setJobPartition(static_cast<std::uint8_t>(i + 1), first,
                                 quotas[i]);
            first += quotas[i];
        }
    }

    // Construct every job against its fabric slice. The job's own
    // cluster knobs are overridden by the fabric's so derived values
    // (retransmission auto-timeouts, lossy-environment detection)
    // describe the network the job actually runs on.
    std::vector<std::unique_ptr<JobBase>> jobs;
    jobs.reserve(k);
    std::size_t offset = 0;
    for (std::size_t i = 0; i < k; ++i) {
        JobConfig jc = cfg.jobs[i];
        jc.cluster.edge_link = fabric_cfg.edge_link;
        jc.cluster.uplink = fabric_cfg.uplink;
        jc.cluster.accel = fabric_cfg.accel;
        SharedWorld world;
        world.sim = &sim;
        world.fabric = &fabric;
        world.worker_offset = offset;
        world.job_id = static_cast<std::uint8_t>(i + 1);
        world.slot_quota = quotas[i];
        jobs.push_back(makeJob(jc, &world));
        offset += jc.num_workers;
    }

    for (auto &j : jobs)
        j->beginRun();

    // Drive the shared event loop until every job meets its stop
    // condition. Chunked execution so the all-finished check runs
    // between batches; the guard and watchdog mirror JobBase::run().
    std::size_t guard = 0;
    sim::TimeNs watchdog = 0;
    for (const auto &j : jobs) {
        const JobConfig &jc = j->config();
        // wire_model_bytes == 0 means "actual model size", unknown
        // here; assume 1 MiB so the guard errs generous.
        const std::uint64_t wire = jc.wire_model_bytes == 0
                                       ? (std::uint64_t{1} << 20)
                                       : jc.wire_model_bytes;
        guard += (jc.stop.max_iterations + 10) * jc.num_workers *
                 (core::segCount(wire) * 64 + 4096);
        watchdog = std::max(watchdog, jc.stop.max_sim_time);
    }
    const auto all_finished = [&jobs] {
        return std::all_of(jobs.begin(), jobs.end(),
                           [](const auto &j) { return j->finished(); });
    };
    std::size_t executed = 0;
    std::string error;
    while (!all_finished()) {
        const std::size_t chunk = 65536;
        const std::size_t ran = sim.run(std::min(chunk, guard - executed));
        executed += ran;
        if (ran == 0) {
            if (!all_finished())
                error = "stalled: shared event queue drained with "
                        "unfinished jobs";
            break;
        }
        if (watchdog > 0 && sim.now() > watchdog && !all_finished()) {
            error = "watchdog: not every job met its stop condition "
                    "by max_sim_time";
            break;
        }
        if (executed >= guard) {
            error = "event guard exhausted: runaway shared event loop";
            break;
        }
    }

    MultiJobResult out;
    out.jobs.reserve(k);
    std::vector<double> throughput;
    double agg = 0.0;
    for (auto &j : jobs) {
        RunResult r = j->finishRun(j->finished() ? "" : error);
        const double secs = static_cast<double>(r.total_time) / 1e9;
        const double x =
            secs > 0.0 ? static_cast<double>(r.iterations) / secs : 0.0;
        throughput.push_back(x);
        agg += x;
        out.jobs.push_back(std::move(r));
    }

    out.fabric["jobs"] = static_cast<double>(k);
    out.fabric["jain_fairness"] = jainIndex(throughput);
    out.fabric["aggregate_iterations_per_sec"] = agg;
    // Pool counters: capacity 0 on an unbounded pool, same key set.
    const auto &pool = fabric.root->accelerator().pool();
    const core::SlotPoolStats t = pool.totals();
    out.fabric["slot_capacity"] = static_cast<double>(pool.capacity());
    out.fabric["slot_contention_events"] =
        static_cast<double>(pool.contentionEvents());
    out.fabric["slot_stale_drops"] = static_cast<double>(t.stale_drops);
    out.fabric["slot_busy_drops"] = static_cast<double>(t.busy_drops);
    out.fabric["slot_unadmitted"] = static_cast<double>(t.unadmitted);
    out.fabric["slot_reclaimed"] = static_cast<double>(t.reclaimed);
    return out;
}

} // namespace isw::dist
