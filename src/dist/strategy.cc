#include "dist/strategy.hh"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "dist/allreduce.hh"
#include "dist/iswitch_async.hh"
#include "dist/iswitch_sync.hh"
#include "dist/ps_async.hh"
#include "dist/ps_sync.hh"
#include "net/packet_pool.hh"

namespace isw::dist {

const char *
strategyName(StrategyKind k)
{
    switch (k) {
      case StrategyKind::kSyncPs: return "PS";
      case StrategyKind::kSyncAllReduce: return "AR";
      case StrategyKind::kSyncIswitch: return "iSW";
      case StrategyKind::kAsyncPs: return "Async PS";
      case StrategyKind::kAsyncIswitch: return "Async iSW";
    }
    return "?";
}

bool
isAsyncStrategy(StrategyKind k)
{
    return k == StrategyKind::kAsyncPs || k == StrategyKind::kAsyncIswitch;
}

JobConfig
JobConfig::forBenchmark(rl::Algo algo, StrategyKind strategy,
                        std::size_t num_workers)
{
    const rl::BenchmarkSpec &spec = rl::specFor(algo);
    JobConfig cfg;
    cfg.algo = algo;
    cfg.strategy = strategy;
    cfg.num_workers = num_workers;
    cfg.agent = spec.config;
    cfg.wire_model_bytes = spec.paper_model_bytes;
    cfg.profile = profileFor(algo);
    return cfg;
}

JobBase::JobBase(const JobConfig &cfg, const SharedWorld *world)
    : cfg_(cfg)
{
    if (cfg_.num_workers == 0)
        throw std::invalid_argument("JobBase: zero workers");
    if (world != nullptr)
        joinSharedWorld(*world);
    else
        buildOwnedWorld();
    initWorkers();
    installFaults();
    resolveRetx();
}

void
JobBase::buildOwnedWorld()
{
    if (cfg_.cluster.accel.num_slots > 0 &&
        (cfg_.use_tree || cfg_.use_fat_tree))
        throw std::invalid_argument(
            "JobBase: bounded slot pools are star-cluster only (the "
            "hierarchical path has no slot-aware upward flow yet)");
    if (!cfg_.cluster.worker_jobs.empty())
        throw std::invalid_argument(
            "JobBase: cluster.worker_jobs tags the workers of a shared "
            "fabric (runSharedJobs); an owned job's workers are job 0");
    owned_sim_ = std::make_unique<sim::Simulation>(cfg_.seed);
    sim_ = owned_sim_.get();
    slot_quota_ =
        static_cast<std::uint32_t>(cfg_.cluster.accel.num_slots);

    ClusterConfig ccfg = cfg_.cluster;
    ccfg.num_workers = cfg_.num_workers;
    ccfg.with_ps = cfg_.strategy == StrategyKind::kSyncPs ||
                   cfg_.strategy == StrategyKind::kAsyncPs;
    ccfg.ps_shards =
        cfg_.strategy == StrategyKind::kSyncPs ? cfg_.ps_shards : 1;
    cluster_ = cfg_.use_fat_tree ? buildFatTreeCluster(*sim_, ccfg)
               : cfg_.use_tree   ? buildTreeCluster(*sim_, ccfg)
                                 : buildStarCluster(*sim_, ccfg);
    if (cfg_.shard)
        enableSharding();
}

void
JobBase::joinSharedWorld(const SharedWorld &world)
{
    if (world.sim == nullptr || world.fabric == nullptr)
        throw std::invalid_argument("JobBase: incomplete SharedWorld");
    if (!cfg_.faults.empty())
        throw std::invalid_argument(
            "JobBase: fault plans are owned-world only");
    if (cfg_.use_tree || cfg_.use_fat_tree)
        throw std::invalid_argument(
            "JobBase: shared fabrics are star clusters");
    if (cfg_.shard)
        throw std::invalid_argument(
            "JobBase: sharded execution is owned-world only (shared "
            "fabrics are single-switch stars with nothing to shard)");
    if (world.worker_offset + cfg_.num_workers >
        world.fabric->workers.size())
        throw std::invalid_argument(
            "JobBase: worker slice exceeds the shared fabric");
    sim_ = world.sim;
    job_id_ = world.job_id;
    slot_quota_ = world.slot_quota;

    // View of the shared fabric: our worker slice, everyone's switches.
    cluster_.workers.assign(
        world.fabric->workers.begin() +
            static_cast<std::ptrdiff_t>(world.worker_offset),
        world.fabric->workers.begin() +
            static_cast<std::ptrdiff_t>(world.worker_offset +
                                        cfg_.num_workers));
    cluster_.leaves = world.fabric->leaves;
    cluster_.root = world.fabric->root;
    cluster_.workersPerRack = 0; // star: every worker hangs off root
}

JobBase::~JobBase()
{
    // An async run can stop with deliveries still queued and frames in
    // link FIFOs. Unwind the world with the job's own pool installed,
    // so those frames recycle into it and are freed with the job
    // instead of parking in the thread's pool past it.
    const net::PacketPool::Scope pool_scope(own_pool_);
    sim_ = nullptr;
    owned_sim_.reset();
    cluster_.topo.reset();
}

void
JobBase::initWorkers()
{
    workers_.resize(cfg_.num_workers);
    published_.resize(cfg_.num_workers);
    for (std::size_t i = 0; i < cfg_.num_workers; ++i) {
        WorkerCtx &w = workers_[i];
        w.index = i;
        w.host = cluster_.workers.at(i);
        // Same weight seed on every worker (identical initial model);
        // unique env/exploration seed per worker.
        w.agent = rl::makeAgent(cfg_.algo, cfg_.agent,
                                /*weight_seed=*/cfg_.seed * 7919 + 17,
                                /*env_seed=*/cfg_.seed * 104729 + 31 + i);
        w.rng = sim_->forkRng();
        w.ppp = PrePostProcessor(cfg_.precision);
        publishWorker(w);
    }
}

void
JobBase::enableSharding()
{
    if (cluster_.sim_domains < 2)
        throw std::invalid_argument(
            "JobBase: sharding needs a multi-rack tree/fat-tree cluster "
            "(set use_tree or use_fat_tree with num_workers > per_rack)");
    sim::ShardPlan plan;
    plan.domains = cluster_.sim_domains;
    plan.lookahead = std::max<sim::TimeNs>(cluster_.domain_lookahead, 1);
    plan.threads = cfg_.shard_threads;
    sim_->shard(plan);
    // One PacketPool per domain: every seal/recycle inside a window
    // touches only the executing domain's free lists. Enter and leave
    // run on the same thread, so the Scope restores that thread's pool.
    domain_pools_.resize(plan.domains);
    sim_->engine().setDomainHooks(
        [this](sim::DomainId d) {
            DomainPool &dp = domain_pools_[d];
            dp.installed.emplace(dp.pool);
        },
        [this](sim::DomainId d) { domain_pools_[d].installed.reset(); });
    // Async staleness snapshots publish at window barriers (the lambda
    // runs after construction, so the virtual dispatch reaches the
    // subclass override).
    sim_->engine().setBarrierHook([this] { onShardBarrier(); });
}

void
JobBase::inDomainOf(const net::Node *n, std::function<void()> fn)
{
    sim_->atInDomain(n->domain(), sim_->now() + domainHopDelay(),
                     std::move(fn));
}

void
JobBase::deferDone(RetxTimer &t, const net::Node *home)
{
    if (!recovery_on_) {
        t.done(); // no-op when unconfigured: zero events either way
        return;
    }
    sim_->atInDomain(home->domain(), sim_->now() + domainHopDelay(),
                     [&t] { t.done(); });
}

void
JobBase::publishWorker(const WorkerCtx &w)
{
    PublishedWorker &p = published_[w.index];
    p.reward.store(w.agent->avgEpisodeReward(10), std::memory_order_relaxed);
    p.episodes.store(w.agent->episodesCompleted(),
                     std::memory_order_relaxed);
}

net::PacketPool::Stats
JobBase::pooledPacketStats() const
{
    net::PacketPool::Stats s = net::PacketPool::local().stats();
    for (const DomainPool &dp : domain_pools_) {
        const net::PacketPool::Stats d = dp.pool.stats();
        s.sealed += d.sealed;
        s.packet_allocs += d.packet_allocs;
        s.packet_reuses += d.packet_reuses;
        s.float_allocs += d.float_allocs;
        s.float_reuses += d.float_reuses;
    }
    return s;
}

void
JobBase::resolveRetx()
{
    retx_ = cfg_.retx;
    if (retx_.timeout == 0) {
        // Auto timeout: the PS return path unicasts one full vector
        // per worker over a single link, so a transfer can legally sit
        // behind ~N serializations plus host overheads; pad generously
        // (spurious firings are dedupe-safe but waste traffic).
        const double bw = cfg_.cluster.edge_link.bandwidth_bps;
        const auto serial = static_cast<sim::TimeNs>(
            static_cast<double>(gradientWire(false).wire_bytes) * 8e9 / bw);
        retx_.timeout =
            serial * static_cast<sim::TimeNs>(cfg_.num_workers + 2) +
            2 * (cfg_.overhead.send + cfg_.overhead.recv) + 5 * sim::kMsec;
    }
    recovery_on_ = lossyEnv() && retx_.max_retries > 0;
}

bool
JobBase::lossyEnv() const
{
    return cfg_.cluster.edge_link.loss_prob > 0.0 ||
           cfg_.cluster.uplink.loss_prob > 0.0 ||
           cfg_.cluster.core_link.loss_prob > 0.0 || !cfg_.faults.empty();
}

void
JobBase::installFaults()
{
    if (cfg_.faults.empty())
        return;
    // The injector draws from a private RNG tree (seed ^ salt), never
    // from sim_->forkRng(): attaching a plan must not shift the
    // stream ids of workers or links vs. the lossless run.
    injector_ = std::make_unique<net::FaultInjector>(*sim_, cfg_.faults,
                                                     cfg_.seed);
    for (std::size_t i = 0; i < workers_.size(); ++i)
        injector_->attach(i, *cluster_.workers[i]->link(0));
    if (cfg_.faults.hasSwitchFaults())
        for (net::Link *l : cluster_.primary_links)
            injector_->attachSwitchLink(*l);

    for (const net::WorkerCrash &c : cfg_.faults.crashes) {
        if (!c.announce || c.worker >= workers_.size())
            continue;
        net::Host *h = cluster_.workers[c.worker];
        core::ProgrammableSwitch *leaf = cluster_.leafOf(c.worker);
        // The Leave departs at the crash instant, inside the injector's
        // grace window, driving the real membership/auto-H machinery;
        // the Join goes out the moment the link is back up. Anchored in
        // the host's home domain: the send must execute on the domain
        // thread owning the host's NIC queues, and the resulting
        // membership update then rides the ordinary cross-domain
        // handoff path to the fabric domain. One-domain engines ignore
        // the domain.
        sim_->atInDomain(h->domain(), c.crash_at, [h, leaf] {
            net::ControlPayload leave;
            leave.action = net::Action::kLeave;
            h->sendTo(leaf->ip(), kSwitchPort, kWorkerPort,
                      net::kTosControl, leave);
        });
        if (c.rejoin_at == 0)
            continue; // permanent fail-stop: the worker never rejoins
        sim_->atInDomain(h->domain(), c.rejoin_at, [h, leaf] {
            net::ControlPayload join;
            join.action = net::Action::kJoin;
            join.has_value = true;
            join.value = core::encodeJoinValue(kWorkerPort,
                                               core::MemberType::kWorker);
            h->sendTo(leaf->ip(), kSwitchPort, kWorkerPort,
                      net::kTosControl, join);
        });
    }
}

void
JobBase::scheduleHaTick()
{
    if (cluster_.backup == nullptr)
        return;
    const sim::TimeNs period =
        std::max<sim::TimeNs>(cfg_.cluster.ha.heartbeat_period, 1);
    // Root and backup both live in domain 0 on every fabric.
    sim_->atInDomain(0, sim_->now() + period, [this] { haTick(); });
}

void
JobBase::haTick()
{
    if (stopped_)
        return; // let the queue drain once the run is over
    // A promoted backup is authoritative and fail-stop: stop beating
    // the old primary so a rejoined one cannot stream stale state.
    if (!cluster_.backup->haPromoted())
        cluster_.root->haBeat();
    cluster_.backup->haCheckPeer();
    scheduleHaTick();
}

net::Ipv4Addr
JobBase::aggIpOf(const WorkerCtx &w) const
{
    core::ProgrammableSwitch *leaf = cluster_.leafOf(w.index);
    if (leaf == cluster_.root && cluster_.backup != nullptr &&
        ha_failed_over_.load(std::memory_order_relaxed))
        return cluster_.backup->ip();
    return leaf->ip();
}

bool
JobBase::checkFailoverFrame(const net::PacketPtr &pkt)
{
    if (pkt->ip.tos != net::kTosControl)
        return false;
    const auto *c = std::get_if<net::ControlPayload>(&pkt->payload);
    if (c == nullptr || c->action != net::Action::kFailover)
        return false;
    handleFailover();
    return true;
}

void
JobBase::handleFailover()
{
    if (ha_failed_over_.exchange(true, std::memory_order_relaxed))
        return;
    if (cluster_.workersPerRack == 0) {
        // Star fabric: every dual-homed host (workers and PS shards
        // alike — the PS is not an aggregation member, so it never
        // sees the kFailover broadcast itself) flips to the backup
        // NIC. Single-domain, so flipping them all here is safe.
        for (net::Host *h : cluster_.workers)
            h->setActiveUplink(1);
        for (net::Host *h : cluster_.ps_shards)
            h->setActiveUplink(1);
    }
}

rl::Agent &
JobBase::workerAgent(std::size_t i)
{
    return *workers_.at(i).agent;
}

WireFormat
JobBase::gradientWire(bool iswitch_plane) const
{
    return gradientWire(iswitch_plane, cfg_.precision);
}

WireFormat
JobBase::gradientWire(bool iswitch_plane, net::Precision precision) const
{
    const std::uint64_t logical = workers_.front().agent->paramCount();
    std::uint64_t wire =
        cfg_.wire_model_bytes == 0
            ? WireFormat::minWireBytes(precision, logical)
            : cfg_.wire_model_bytes;
    // A paper-sized wire model counts fp32 words; packed halves carry
    // it in half the bytes (int32 words are the same width as fp32).
    if (cfg_.wire_model_bytes != 0 && precision == net::Precision::kFp16)
        wire /= 2;
    return WireFormat::forVector(logical, wire, iswitch_plane, precision);
}

void
JobBase::scheduleLgc(WorkerCtx &w, std::function<void()> done)
{
    // Snapshot semantics: the gradient is computed against the weights
    // as of LGC start; the result becomes visible when the stage's
    // simulated duration elapses.
    const ml::Vec &g = w.agent->computeGradient();
    w.pending_grad.assign(g.begin(), g.end());
    publishWorker(w); // episode state may have advanced during compute

    // Straggler injection: a slowed worker's compute stretches
    // uniformly (and the stretched time is what its metrics record).
    const double scale =
        injector_ ? injector_->computeScale(w.index, sim_->now()) : 1.0;
    const auto stretch = [scale](sim::TimeNs d) {
        return scale == 1.0
                   ? d
                   : static_cast<sim::TimeNs>(static_cast<double>(d) * scale);
    };

    sim::TimeNs total = 0;
    for (std::size_t c = 0; c < kNumComponents; ++c) {
        const auto comp = static_cast<IterComponent>(c);
        if (!isLgcComponent(comp))
            continue;
        const sim::TimeNs dur = stretch(cfg_.profile.sample(comp, w.rng));
        w.metrics.add(comp, dur);
        total += dur;
    }
    // "Others" is measured as part of the local stage in Figure 4.
    const sim::TimeNs oth =
        stretch(cfg_.profile.sample(IterComponent::kOthers, w.rng));
    w.metrics.add(IterComponent::kOthers, oth);
    total += oth;

    WorkerCtx *wp = &w;
    // Anchor the completion in the worker's rack domain: round 0 is
    // scheduled from the setup thread (no domain context), and this
    // pins each worker's whole event chain to its own domain under
    // sharding. One-domain engines ignore the domain, so timing and
    // order are exactly after(total, ...).
    sim_->atInDomain(wp->host->domain(), sim_->now() + total,
                     [wp, done = std::move(done)] {
                         wp->lgc_end = wp->host->simulation().now();
                         done();
                     });
}

sim::TimeNs
JobBase::chargeWeightUpdate(WorkerCtx &w)
{
    const sim::TimeNs dur =
        cfg_.profile.sample(IterComponent::kWeightUpdate, w.rng);
    w.metrics.add(IterComponent::kWeightUpdate, dur);
    return dur;
}

double
JobBase::clusterAvgReward() const
{
    // Published snapshots, not live agents: equal at every event
    // boundary (workers republish whenever episode state changes) and
    // safe to read from another domain's thread in sharded runs.
    double sum = 0.0;
    for (const PublishedWorker &p : published_)
        sum += p.reward.load(std::memory_order_relaxed);
    return sum / static_cast<double>(published_.size());
}

std::uint64_t
JobBase::totalEpisodes() const
{
    std::uint64_t n = 0;
    for (const PublishedWorker &p : published_)
        n += p.episodes.load(std::memory_order_relaxed);
    return n;
}

void
JobBase::noteGlobalIteration()
{
    ++global_iters_;
    last_update_time_ = sim_->now();
    if (global_iters_ % cfg_.curve_every == 0)
        curve_.record(sim_->now(), clusterAvgReward());
    checkStop();
}

void
JobBase::checkStop()
{
    if (stopped_)
        return;
    if (global_iters_ >= cfg_.stop.max_iterations) {
        stopped_ = true;
        return;
    }
    if (cfg_.stop.hasTarget() && totalEpisodes() >= cfg_.stop.min_episodes &&
        clusterAvgReward() >= cfg_.stop.target_reward) {
        stopped_ = true;
        reached_target_ = true;
    }
}

void
JobBase::beginRun()
{
    // Serial jobs run wholly on the calling thread; sharded jobs spread
    // over per-domain pools. Either way the summed counter deltas are
    // exactly this job's traffic (for shared fabrics: the fabric's
    // traffic since this job began).
    const net::PacketPool::Stats pool0 = pooledPacketStats();
    run_pool_sealed0_ = pool0.sealed;
    run_pool_pallocs0_ = pool0.packet_allocs;
    run_pool_fallocs0_ = pool0.float_allocs;
    run_pool_preuse0_ = pool0.packet_reuses;
    run_pool_freuse0_ = pool0.float_reuses;
    run_events0_ = sim_->eventsExecuted();
    run_t0_ = std::chrono::steady_clock::now();
    start();
    scheduleHaTick();
}

RunResult
JobBase::run()
{
    // A one-domain run draws every frame from the job's own pool, so
    // the storage it grows is freed with the job; sharded windows
    // install their domain's pool through the engine's hooks.
    std::optional<net::PacketPool::Scope> pool_scope;
    if (!sim_->sharded())
        pool_scope.emplace(own_pool_);
    beginRun();
    // Generous runaway guard: every iteration costs a bounded number
    // of events (packets dominate), with extra headroom for loss
    // recovery retransmissions.
    const std::size_t guard =
        (cfg_.stop.max_iterations + 10) * cfg_.num_workers *
        (gradientWire(false).segments() * 64 + 4096);
    std::string error;
    if (cfg_.stop.max_sim_time > 0) {
        sim_->runUntil(cfg_.stop.max_sim_time);
        if (!stopped_ && !sim_->queueEmpty())
            error = "watchdog: no stop condition met by max_sim_time (" +
                    std::to_string(global_iters_) + "/" +
                    std::to_string(cfg_.stop.max_iterations) +
                    " iterations)";
    } else {
        sim_->run(guard);
        if (!sim_->queueEmpty())
            error = "event guard exhausted: runaway event loop after " +
                    std::to_string(global_iters_) + " iterations";
    }
    if (error.empty() && !stopped_)
        error = "stalled: event queue drained after " +
                std::to_string(global_iters_) + "/" +
                std::to_string(cfg_.stop.max_iterations) +
                " iterations (lost traffic never recovered?)";
    return finishRun(std::move(error));
}

RunResult
JobBase::finishRun(std::string error)
{
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_t0_)
            .count();
    const net::PacketPool::Stats pool1 = pooledPacketStats();
    const auto events =
        static_cast<double>(sim_->eventsExecuted() - run_events0_);
    const auto sealed =
        static_cast<double>(pool1.sealed - run_pool_sealed0_);

    RunResult res;
    res.error = std::move(error);
    res.iterations = global_iters_;
    res.total_time = last_update_time_;
    res.final_avg_reward = clusterAvgReward();
    res.reached_target = reached_target_;
    res.breakdown = workers_.front().metrics;
    res.reward_curve = curve_;
    // Deterministic counts: identical serial vs parallel, so they are
    // safe in extras (which resultToJson serializes and the runner
    // parity test compares byte-for-byte).
    res.extras["events_executed"] = events;
    res.extras["packets_sealed"] = sealed;
    // Wall-clock / pool-warmth dependent rates live in perf only.
    if (wall_s > 0.0) {
        res.perf["events_per_sec"] = events / wall_s;
        res.perf["packets_per_sec"] = sealed / wall_s;
    }
    const auto fresh_allocs =
        static_cast<double>((pool1.packet_allocs - run_pool_pallocs0_) +
                            (pool1.float_allocs - run_pool_fallocs0_));
    res.perf["pool_allocs"] = fresh_allocs;
    res.perf["pool_reuses"] =
        static_cast<double>((pool1.packet_reuses - run_pool_preuse0_) +
                            (pool1.float_reuses - run_pool_freuse0_));
    if (global_iters_ > 0)
        res.perf["allocs_per_iteration"] =
            fresh_allocs / static_cast<double>(global_iters_);
    // Event-queue depth: how many events were pending at once, the
    // largest over the shard domains. Engine state, not experiment
    // state, like the window counters below.
    res.perf["peak_pending_events"] =
        static_cast<double>(sim_->peakPendingEvents());
    // Sharded-engine loop counters. They are deterministic, but they
    // describe the engine, not the experiment, so they live in perf
    // (excluded from resultToJson).
    if (sim_->sharded()) {
        const sim::ShardedEngine &eng = sim_->engine();
        res.perf["shard_windows"] = static_cast<double>(eng.windows());
        // Windows run on the owning thread rather than the pool (the
        // key predates the width dispatch; perfbench reads it).
        res.perf["shard_windows_serial"] =
            static_cast<double>(eng.windowsInline());
        res.perf["shard_domains_skipped"] =
            static_cast<double>(eng.domainsSkipped());
        res.perf["shard_cross_events"] =
            static_cast<double>(eng.crossEvents());
        res.perf["shard_cross_batches"] =
            static_cast<double>(eng.crossBatches());
    }
    collectExtras(res);
    return res;
}

void
JobBase::collectExtras(RunResult &res) const
{
    // One fixed key set for every run (report schema 2): a subsystem
    // the run does not use reports 0 rather than dropping its keys, so
    // readers never branch on key presence.
    const auto put = [&res](const char *key, const auto &value) {
        res.extras[key] = static_cast<double>(value);
    };
    const auto &pool = cluster_.root->accelerator().pool();
    put("peak_active_segments", pool.peakActiveSegments());
    put("cached_results", cluster_.root->cachedResults());
    // Slot-pool observability (capacity and quota are 0 on the default
    // unbounded pool).
    const core::SlotPoolStats js = pool.jobStats(job_id_);
    put("slot_capacity", pool.capacity());
    put("slot_quota", pool.quotaFor(job_id_));
    put("slot_accepted", js.accepted);
    put("slot_completed", js.completed);
    put("slot_stale_drops", js.stale_drops);
    put("slot_busy_drops", js.busy_drops);
    put("slot_unadmitted", js.unadmitted);
    put("slot_reclaimed", js.reclaimed);
    put("slot_contention_events", pool.contentionEvents());

    // Recovery (every timer feeds recovery_; all 0 when lossless).
    const RecoveryStats &r = recovery_;
    put("retx_timeouts", r.timeouts);
    put("retx_segments", r.retransmits);
    put("help_requests", r.help_requests);
    put("fbcasts", r.fbcasts);
    put("recoveries", r.recoveries);
    put("retx_gave_up", r.gave_up);
    put("recovery_latency_ms_total", sim::toMillis(r.latency_total));
    put("recovery_latency_ms_max", sim::toMillis(r.latency_max));
    static const char *const kHistKeys[6] = {
        "recovery_hist_lt1ms",   "recovery_hist_lt4ms",
        "recovery_hist_lt16ms",  "recovery_hist_lt64ms",
        "recovery_hist_lt256ms", "recovery_hist_ge256ms",
    };
    for (std::size_t b = 0; b < r.latency_hist.size(); ++b)
        put(kHistKeys[b], r.latency_hist[b]);

    // Quantization: codec clamps summed over the workers, integer-
    // datapath counters over every aggregating switch. All 0 on fp32.
    ml::QuantStats p;
    for (const WorkerCtx &w : workers_) {
        p.value_clamps += w.ppp.stats().value_clamps;
        p.exp_clamps += w.ppp.stats().exp_clamps;
    }
    put("quant_value_clamps", p.value_clamps);
    put("quant_exp_clamps", p.exp_clamps);
    core::SlotPoolStats sw;
    for (core::ProgrammableSwitch *s : cluster_.switches()) {
        const core::SlotPoolStats t = s->accelerator().pool().totals();
        sw.overflow_clamps += t.overflow_clamps;
        sw.exp_rescales += t.exp_rescales;
    }
    put("switch_overflow_clamps", sw.overflow_clamps);
    put("switch_exp_rescales", sw.exp_rescales);

    // Fault injection (all 0 without a fault plan).
    const net::FaultStats f =
        injector_ != nullptr ? injector_->stats() : net::FaultStats{};
    put("fault_ge_drops", f.ge_drops);
    put("fault_iid_drops", f.iid_drops);
    put("fault_down_drops", f.down_drops);
    put("fault_duplicates", f.duplicates);
    put("fault_reorders", f.reorders);
    put("fault_switch_drops", f.switch_drops);
    put("fault_partition_drops", f.partition_drops);

    // HA failover (all 0 without a backup switch).
    const core::ProgrammableSwitch *bk = cluster_.backup;
    const bool promoted = bk != nullptr && bk->haPromoted();
    const core::ReplicationStats rs =
        cluster_.root->replication() != nullptr
            ? cluster_.root->replication()->stats()
            : core::ReplicationStats{};
    put("failover_events", promoted ? 1 : 0);
    put("failover_heartbeats", bk != nullptr ? bk->haMonitor().beats() : 0);
    put("failover_beats_missed",
        bk != nullptr ? bk->haMonitor().missed() : 0);
    put("failover_promote_ms",
        promoted ? sim::toMillis(bk->haPromoteTime()) : 0.0);
    put("failover_repl_frames",
        rs.state_frames + rs.result_frames + rs.member_frames);
    put("failover_repl_results", rs.result_frames);
    put("failover_repl_applied",
        bk != nullptr ? bk->haStateApplied() + bk->haMembersApplied() : 0);
    put("failover_repl_results_applied",
        bk != nullptr ? bk->haResultsApplied() : 0);
}

std::unique_ptr<JobBase>
makeJob(const JobConfig &cfg, const SharedWorld *world)
{
    if (world != nullptr && cfg.strategy != StrategyKind::kSyncIswitch &&
        cfg.strategy != StrategyKind::kAsyncIswitch)
        throw std::invalid_argument(
            "makeJob: only the iSwitch strategies can share a switch "
            "(PS/AllReduce never touch the aggregation plane)");
    switch (cfg.strategy) {
      case StrategyKind::kSyncPs:
        return std::make_unique<SyncPsJob>(cfg);
      case StrategyKind::kSyncAllReduce:
        return std::make_unique<SyncAllReduceJob>(cfg);
      case StrategyKind::kSyncIswitch:
        return std::make_unique<SyncIswitchJob>(cfg, world);
      case StrategyKind::kAsyncPs:
        return std::make_unique<AsyncPsJob>(cfg);
      case StrategyKind::kAsyncIswitch:
        return std::make_unique<AsyncIswitchJob>(cfg, world);
    }
    throw std::logic_error("makeJob: unknown strategy");
}

RunResult
runJob(const JobConfig &cfg)
{
    return makeJob(cfg)->run();
}

} // namespace isw::dist
