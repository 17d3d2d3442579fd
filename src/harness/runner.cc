#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>

#include "harness/experiment.hh"

namespace isw::harness {

namespace {

std::size_t
resolveJobs(std::size_t requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("ISW_BENCH_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

json::Value
linkJson(const net::LinkConfig &l)
{
    json::Value v = json::Value::object();
    v["bandwidth_bps"] = l.bandwidth_bps;
    v["propagation_ns"] = l.propagation;
    v["loss_prob"] = l.loss_prob;
    return v;
}

json::Value
overheadJson(const dist::HostOverhead &o)
{
    json::Value v = json::Value::object();
    v["send_ns"] = o.send;
    v["recv_ns"] = o.recv;
    return v;
}

/** A JSON array holding entry(item) for every item. */
template <typename T, typename Fn>
json::Value
listJson(const std::vector<T> &items, Fn entry)
{
    json::Value v = json::Value::array();
    for (const T &item : items)
        v.push(entry(item));
    return v;
}

} // namespace

SpecKey
SpecKey::of(const dist::JobConfig &cfg)
{
    return SpecKey{configToJson(cfg).dump()};
}

struct Runner::Entry
{
    ExperimentSpec spec;     ///< first spec submitted for this config
    std::uint64_t order = 0; ///< first-submission index
    dist::RunResult result;
    double wall_ms = 0.0;
    bool done = false;
};

Runner::Runner(RunnerOptions opts)
    : opts_(std::move(opts)), jobs_(resolveJobs(opts_.jobs))
{
}

Runner::~Runner() = default;

std::pair<std::shared_ptr<Runner::Entry>, bool>
Runner::lookup(const ExperimentSpec &spec)
{
    SpecKey key = SpecKey::of(spec.config);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return {it->second, false};
    auto entry = std::make_shared<Entry>();
    entry->spec = spec;
    entry->order = next_order_++;
    cache_.emplace(std::move(key), entry);
    return {entry, true};
}

void
Runner::execute(Entry &e)
{
    const auto t0 = std::chrono::steady_clock::now();
    dist::RunResult result;
    try {
        auto job = dist::makeJob(e.spec.config);
        // Per-runner serialized sink: a job's log lines never
        // interleave with another's mid-line, and each line says which
        // experiment produced it.
        sim::Logger &logger = job->simulation().logger();
        logger.setSink([this, name = e.spec.name](const std::string &line) {
            std::lock_guard<std::mutex> lock(log_mu_);
            if (opts_.log_sink)
                opts_.log_sink("[" + name + "] " + line);
            else
                std::fprintf(stderr, "[%s] %s\n", name.c_str(),
                             line.c_str());
        });
        result = job->run();
    } catch (const std::exception &ex) {
        // One faulty spec must not abort a whole sweep: the failure
        // becomes this spec's diagnostic result instead.
        result.error = ex.what();
    } catch (...) {
        result.error = "unknown exception";
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    {
        std::lock_guard<std::mutex> lock(mu_);
        e.result = std::move(result);
        e.wall_ms = wall_ms;
        e.done = true;
    }
    cv_.notify_all();
}

void
Runner::waitDone(Entry &e)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&e] { return e.done; });
}

const dist::RunResult &
Runner::run(const ExperimentSpec &spec)
{
    auto [entry, fresh] = lookup(spec);
    if (fresh)
        execute(*entry);
    waitDone(*entry);
    return entry->result;
}

std::vector<dist::RunResult>
Runner::runAll(const std::vector<ExperimentSpec> &specs)
{
    // Dedup before submission: one cache entry per unique config; only
    // fresh entries become work items.
    std::vector<std::shared_ptr<Entry>> order;
    std::vector<std::shared_ptr<Entry>> work;
    order.reserve(specs.size());
    for (const ExperimentSpec &spec : specs) {
        auto [entry, fresh] = lookup(spec);
        order.push_back(entry);
        if (fresh)
            work.push_back(std::move(entry));
    }

    const std::size_t width = std::min(jobs_, work.size());
    if (width <= 1) {
        for (auto &e : work)
            execute(*e);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(width);
        for (std::size_t t = 0; t < width; ++t) {
            pool.emplace_back([this, &next, &work] {
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= work.size())
                        return;
                    execute(*work[i]);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    // Deterministic spec order, regardless of completion order.
    std::vector<dist::RunResult> results;
    results.reserve(order.size());
    for (auto &e : order) {
        waitDone(*e);
        results.push_back(e->result);
    }
    return results;
}

std::size_t
Runner::executed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
}

json::Value
Runner::reportJson(const std::string &bench_name) const
{
    std::vector<std::shared_ptr<Entry>> entries;
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries.reserve(cache_.size());
        for (const auto &[key, entry] : cache_)
            entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a->order < b->order;
              });

    json::Value root = json::Value::object();
    root["bench"] = bench_name;
    root["schema_version"] = kReportSchemaVersion;
    root["jobs"] = static_cast<std::uint64_t>(jobs_);
    root["scale"] = benchOptions().full ? "full" : "quick";
    json::Value runs = json::Value::array();
    for (const auto &e : entries) {
        if (!e->done)
            continue;
        json::Value run = resultToJson(e->result);
        run["name"] = e->spec.name;
        if (!e->spec.tags.empty()) {
            json::Value tags = json::Value::array();
            for (const std::string &t : e->spec.tags)
                tags.push(t);
            run["tags"] = std::move(tags);
        }
        run["config"] = configToJson(e->spec.config);
        run["wall_clock_ms"] = e->wall_ms;
        if (!e->result.perf.empty()) {
            // Wall-clock-class throughput metrics: kept out of
            // resultToJson so determinism comparisons stay clean.
            json::Value perf = json::Value::object();
            for (const auto &[key, value] : e->result.perf)
                perf[key] = value;
            run["perf"] = std::move(perf);
        }
        runs.push(std::move(run));
    }
    root["runs"] = std::move(runs);
    return root;
}

std::string
Runner::writeReport(const std::string &bench_name,
                    const std::string &dir) const
{
    const json::Value root = reportJson(bench_name);
    const std::string path = dir + "/BENCH_" + bench_name + ".json";
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    out.close();
    std::printf("# wrote %s (%zu runs)\n", path.c_str(),
                root.find("runs")->size());
    return path;
}

json::Value
resultToJson(const dist::RunResult &r)
{
    json::Value v = json::Value::object();
    v["iterations"] = r.iterations;
    v["per_iter_ms"] = r.perIterationMs();
    v["reward"] = r.final_avg_reward;
    v["reached_target"] = r.reached_target;
    v["total_sim_ns"] = r.total_time;
    if (!r.error.empty())
        v["error"] = r.error;

    json::Value breakdown = json::Value::object();
    for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
        const auto comp = static_cast<dist::IterComponent>(c);
        breakdown[dist::componentName(comp)] = r.breakdown.meanMs(comp);
    }
    v["breakdown_ms"] = std::move(breakdown);

    if (!r.extras.empty()) {
        json::Value extras = json::Value::object();
        for (const auto &[key, value] : r.extras)
            extras[key] = value;
        v["extras"] = std::move(extras);
    }

    json::Value curve = json::Value::array();
    for (const auto &p : r.reward_curve.points()) {
        json::Value point = json::Value::array();
        point.push(p.t);
        point.push(p.v);
        curve.push(std::move(point));
    }
    v["curve"] = std::move(curve);
    return v;
}

dist::RunResult
resultFromJson(const json::Value &v)
{
    dist::RunResult r;
    if (const json::Value *f = v.find("iterations"))
        r.iterations = static_cast<std::uint64_t>(f->asNumber());
    if (const json::Value *f = v.find("total_sim_ns"))
        r.total_time = static_cast<sim::TimeNs>(f->asNumber());
    if (const json::Value *f = v.find("reward"))
        r.final_avg_reward = f->asNumber();
    if (const json::Value *f = v.find("reached_target"))
        r.reached_target = f->asBool();
    if (const json::Value *f = v.find("error"))
        r.error = f->asString();
    if (const json::Value *f = v.find("breakdown_ms")) {
        for (std::size_t c = 0; c < dist::kNumComponents; ++c) {
            const auto comp = static_cast<dist::IterComponent>(c);
            if (const json::Value *m = f->find(dist::componentName(comp))) {
                const double mean = m->asNumber();
                if (mean > 0.0)
                    r.breakdown.add(comp, sim::fromMillis(mean));
            }
        }
    }
    if (const json::Value *f = v.find("extras")) {
        for (const auto &[key, value] : f->members())
            r.extras[key] = value.asNumber();
    }
    if (const json::Value *f = v.find("curve")) {
        for (const json::Value &p : f->items()) {
            if (p.size() == 2)
                r.reward_curve.record(
                    static_cast<sim::TimeNs>(p.items()[0].asNumber()),
                    p.items()[1].asNumber());
        }
    }
    return r;
}

json::Value
configToJson(const dist::JobConfig &cfg)
{
    json::Value v = json::Value::object();
    v["algo"] = rl::algoName(cfg.algo);
    v["strategy"] = dist::strategyName(cfg.strategy);
    v["num_workers"] = cfg.num_workers;

    const rl::AgentConfig &a = cfg.agent;
    json::Value &agent = v["agent"];
    agent["hidden"] = a.hidden;
    agent["lr"] = a.lr;
    agent["gamma"] = a.gamma;
    agent["steps_per_iter"] = a.steps_per_iter;
    agent["batch_size"] = a.batch_size;
    agent["replay_capacity"] = a.replay_capacity;
    agent["warmup"] = a.warmup;
    agent["target_sync_iters"] = a.target_sync_iters;
    agent["grad_clip"] = a.grad_clip;
    agent["eps_start"] = a.eps_start;
    agent["eps_end"] = a.eps_end;
    agent["eps_decay_iters"] = a.eps_decay_iters;
    agent["noise_std"] = a.noise_std;
    agent["tau"] = a.tau;
    agent["value_coef"] = a.value_coef;
    agent["entropy_coef"] = a.entropy_coef;
    agent["gae_lambda"] = a.gae_lambda;
    agent["ppo_clip"] = a.ppo_clip;
    agent["init_log_std"] = a.init_log_std;

    v["wire_model_bytes"] = cfg.wire_model_bytes;
    json::Value &profile = v["profile"];
    for (std::size_t c = 0; c < dist::kNumComponents; ++c)
        profile["mean_ns"][dist::componentName(
            static_cast<dist::IterComponent>(c))] = cfg.profile.mean[c];
    profile["jitter_cv"] = cfg.profile.jitter_cv;
    v["overhead"] = overheadJson(cfg.overhead);
    v["iswitch_overhead"] = overheadJson(cfg.iswitch_overhead);
    v["ps_sum_bytes_per_sec"] = cfg.ps_sum_bytes_per_sec;

    // ClusterConfig's num_workers, with_ps and ps_shards stay out:
    // JobBase overwrites all three from the job (num_workers, the
    // strategy and ps_shards here), so they never reach the run.
    const dist::ClusterConfig &c = cfg.cluster;
    json::Value &cluster = v["cluster"];
    cluster["edge_link"] = linkJson(c.edge_link);
    cluster["uplink"] = linkJson(c.uplink);
    cluster["per_rack"] = c.per_rack;
    cluster["racks_per_pod"] = c.racks_per_pod;
    cluster["core_link"] = linkJson(c.core_link);
    json::Value &accel = cluster["accel"];
    accel["clock_hz"] = c.accel.clock_hz;
    accel["burst_bytes"] = c.accel.burst_bytes;
    accel["fixed_latency_ns"] = c.accel.fixed_latency;
    accel["num_slots"] = c.accel.num_slots;
    cluster["switch"]["forwarding_latency_ns"] =
        c.switch_cfg.forwarding_latency;
    cluster["worker_jobs"] = listJson(
        c.worker_jobs, [](std::uint8_t j) { return json::Value(j); });
    json::Value &ha = cluster["ha"];
    ha["with_backup"] = c.ha.with_backup;
    ha["repl_mode"] = static_cast<int>(c.ha.repl_mode);
    ha["staleness_window_ns"] = c.ha.staleness_window;
    ha["heartbeat_period_ns"] = c.ha.heartbeat_period;
    ha["miss_threshold"] = static_cast<std::uint64_t>(c.ha.miss_threshold);

    v["use_tree"] = cfg.use_tree;
    v["use_fat_tree"] = cfg.use_fat_tree;
    v["shard"] = cfg.shard;
    v["shard_threads"] = static_cast<std::uint64_t>(cfg.shard_threads);
    v["seed"] = cfg.seed;
    v["staleness_bound"] =
        static_cast<std::uint64_t>(cfg.staleness_bound);
    v["ps_shards"] = cfg.ps_shards;
    v["agg_threshold"] = static_cast<std::uint64_t>(cfg.agg_threshold);
    v["precision"] = net::precisionName(cfg.precision);
    json::Value &stop = v["stop"];
    stop["max_iterations"] = cfg.stop.max_iterations;
    stop["target_reward"] = cfg.stop.hasTarget()
                                ? json::Value(cfg.stop.target_reward)
                                : json::Value(); // null: no reward target
    stop["min_episodes"] = cfg.stop.min_episodes;
    stop["max_sim_time_ns"] = cfg.stop.max_sim_time;
    v["curve_every"] = cfg.curve_every;

    const net::FaultPlan &f = cfg.faults;
    json::Value &faults = v["faults"];
    json::Value &ge = faults["gilbert_elliott"];
    ge["p_good_to_bad"] = f.ge.p_good_to_bad;
    ge["p_bad_to_good"] = f.ge.p_bad_to_good;
    ge["loss_good"] = f.ge.loss_good;
    ge["loss_bad"] = f.ge.loss_bad;
    faults["extra_loss"] = f.extra_loss;
    faults["duplicate_prob"] = f.duplicate_prob;
    faults["reorder_prob"] = f.reorder_prob;
    faults["reorder_delay_ns"] = f.reorder_delay;
    faults["link_down"] =
        listJson(f.link_down, [](const net::LinkDownWindow &w) {
            json::Value e = json::Value::object();
            e["worker"] = w.worker;
            e["down_at_ns"] = w.down_at;
            e["up_at_ns"] = w.up_at;
            return e;
        });
    faults["crashes"] = listJson(f.crashes, [](const net::WorkerCrash &w) {
        json::Value e = json::Value::object();
        e["worker"] = w.worker;
        e["crash_at_ns"] = w.crash_at;
        e["rejoin_at_ns"] = w.rejoin_at;
        e["announce"] = w.announce;
        return e;
    });
    faults["stragglers"] =
        listJson(f.stragglers, [](const net::Straggler &s) {
            json::Value e = json::Value::object();
            e["worker"] = s.worker;
            e["slowdown"] = s.slowdown;
            e["from_ns"] = s.from;
            e["until_ns"] = s.until;
            return e;
        });
    faults["switch_crashes"] =
        listJson(f.switch_crashes, [](const net::SwitchCrash &sc) {
            json::Value e = json::Value::object();
            e["crash_at_ns"] = sc.crash_at;
            e["rejoin_at_ns"] = sc.rejoin_at;
            return e;
        });
    faults["control_partitions"] =
        listJson(f.control_partitions, [](const net::ControlPartition &p) {
            json::Value e = json::Value::object();
            e["from_ns"] = p.from;
            e["until_ns"] = p.until;
            return e;
        });

    json::Value &retx = v["retx"];
    retx["timeout_ns"] = cfg.retx.timeout;
    retx["backoff"] = cfg.retx.backoff;
    retx["max_retries"] = static_cast<std::uint64_t>(cfg.retx.max_retries);
    retx["max_timeout_ns"] = cfg.retx.max_timeout;
    return v;
}

} // namespace isw::harness
