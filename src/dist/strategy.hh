/**
 * @file
 * Distributed-training job framework.
 *
 * A Job owns a simulation, a cluster, and one timed worker context per
 * training node, and implements one of the paper's five training
 * strategies (§5.2): Sync PS, Sync AllReduce, Sync iSwitch, Async PS,
 * Async iSwitch. Subclasses provide the event choreography; the base
 * provides timing charges, stop conditions, reward curves, and result
 * collection.
 */

#ifndef ISW_DIST_STRATEGY_HH
#define ISW_DIST_STRATEGY_HH

#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>

#include "dist/cluster.hh"
#include "dist/metrics.hh"
#include "dist/pipeline.hh"
#include "dist/timing.hh"
#include "dist/transport.hh"
#include "net/fault.hh"
#include "net/packet_pool.hh"
#include "rl/agent.hh"
#include "rl/model_zoo.hh"

namespace isw::dist {

/** The five training strategies evaluated by the paper. */
enum class StrategyKind {
    kSyncPs,
    kSyncAllReduce,
    kSyncIswitch,
    kAsyncPs,
    kAsyncIswitch,
};

/** Printable strategy name (paper notation: PS/AR/iSW/...). */
const char *strategyName(StrategyKind k);

/** True for the asynchronous strategies. */
bool isAsyncStrategy(StrategyKind k);

/** When to end a training run. */
struct StopCondition
{
    std::uint64_t max_iterations = 200;
    /** Stop early when the cluster-average reward reaches this. */
    double target_reward = std::numeric_limits<double>::quiet_NaN();
    /** Episodes required before the reward target is consulted. */
    std::uint64_t min_episodes = 10;
    /**
     * Simulated-time watchdog: when > 0 and the run has not met a stop
     * condition by this simulated instant, it terminates with a
     * diagnostic RunResult::error instead of spinning the event loop
     * (a lossy run of an unprotected strategy used to hang forever).
     */
    sim::TimeNs max_sim_time = 0;

    bool
    hasTarget() const
    {
        return !std::isnan(target_reward);
    }
};

/** Complete description of one distributed training run. */
struct JobConfig
{
    rl::Algo algo = rl::Algo::kDqn;
    StrategyKind strategy = StrategyKind::kSyncIswitch;
    std::size_t num_workers = 4;
    rl::AgentConfig agent;
    /**
     * Bytes the gradient occupies on the wire (paper model size).
     * 0 means "the actual local model size".
     */
    std::uint64_t wire_model_bytes = 0;
    ComputeProfile profile;
    /**
     * Per-message host cost of the PS/AR baselines, which ride the
     * full framework stack (PyTorch distributed / OpenMPI in the
     * paper's reference designs, §5.1).
     */
    HostOverhead overhead{1500 * sim::kUsec, 1000 * sim::kUsec};
    /**
     * Per-message host cost on the iSwitch plane, whose custom raw
     * UDP protocol (§3.2) bypasses the framework stack.
     */
    HostOverhead iswitch_overhead{30 * sim::kUsec, 20 * sim::kUsec};
    /** Server summation throughput for the PS baselines (bytes/s). */
    double ps_sum_bytes_per_sec = 8e9;
    ClusterConfig cluster;
    bool use_tree = false; ///< star (main cluster) vs rack-scale tree
    /**
     * Three-layer ToR-AGG-Core fat-tree (takes precedence over
     * use_tree; see buildFatTreeCluster). cluster.per_rack,
     * cluster.racks_per_pod, and cluster.core_link shape the fabric.
     */
    bool use_fat_tree = false;
    /**
     * Run on one engine domain per rack (sim/shard.hh), with windows
     * bounded by the uplink propagation delay, instead of the default
     * single domain. Requires a multi-rack tree/fat-tree cluster
     * (throws otherwise); every strategy and lossy/faulted environment
     * is supported (DESIGN.md §15). Both settings run the same
     * recovery path, so sync lossless and sync lossy reports are
     * byte-identical to the one-domain run; async reports are
     * deterministic across shard_threads. Both hold up to
     * sub-lookahead event ties, which the millisecond-scale compute
     * jitter makes vanishingly unlikely; the determinism regression
     * tests pin this.
     */
    bool shard = false;
    /**
     * Threads for the sharded engine (0 = one per core). They size a
     * pool that only wide windows wake (sim::ShardPlan::threads);
     * every other window runs on the calling thread.
     */
    unsigned shard_threads = 0;
    std::uint64_t seed = 1;
    /** Algorithm 1's staleness bound S (async strategies). */
    std::uint32_t staleness_bound = 3;
    /**
     * Server shards of the sync PS (kSyncPs only). 1 is the paper's
     * central server; K > 1 splits the vector over K PS hosts, each
     * summing and returning 1/K of it (DESIGN.md §15).
     */
    std::size_t ps_shards = 1;
    /**
     * Async iSwitch aggregation threshold H (the SetH knob, Table 2).
     * 0 = the paper default: H tracks the number of workers. Smaller
     * H broadcasts partial sums more often — more frequent, noisier
     * updates.
     */
    std::uint32_t agg_threshold = 0;
    /**
     * Gradient wire precision — the pre/post-processor pipeline every
     * strategy runs per chunk (DESIGN.md §14). kFp32 is the lossless
     * bypass (it simulates exactly as a build without the pipeline
     * would); kFp16 packs two halves per wire word and halves a
     * paper-sized wire model; kInt32 is block-shared-exponent fixed
     * point, which the switch accumulates exactly with integer adds.
     * Async-PS weight pulls always stay fp32 — only gradients
     * quantize.
     */
    net::Precision precision = net::Precision::kFp32;
    StopCondition stop;
    std::size_t curve_every = 10; ///< curve sample period (iterations)
    /**
     * Declarative fault schedule (empty = no injector attached; the
     * data path is bit-identical to a build without the subsystem).
     */
    net::FaultPlan faults;
    /**
     * Universal loss-recovery knobs. Recovery activates only in lossy
     * environments (link loss_prob > 0 or a non-empty fault plan), so
     * lossless runs schedule zero recovery events. timeout 0 derives a
     * default from the wire size and worker count.
     */
    RetransmitPolicy retx;

    /** Preset for @p algo + @p strategy with zoo hyperparameters and
     *  the paper's wire model size. */
    static JobConfig forBenchmark(rl::Algo algo, StrategyKind strategy,
                                  std::size_t num_workers = 4);
};

/**
 * A slice of a shared switch fabric handed to a job that coexists with
 * other jobs on one Simulation (multi-job switch sharing, DESIGN.md
 * §11). The job uses the fabric's switches and a contiguous range of
 * its worker hosts instead of building its own cluster.
 */
struct SharedWorld
{
    sim::Simulation *sim = nullptr;
    Cluster *fabric = nullptr;      ///< shared topology (owned elsewhere)
    std::size_t worker_offset = 0;  ///< first worker host of this job
    std::uint8_t job_id = 0;        ///< tag on every packet/member row
    std::uint32_t slot_quota = 0;   ///< aggregator slots partitioned to us
};

/** Base class implementing the shared run machinery. */
class JobBase
{
  public:
    /**
     * Build the job's own world (simulation and cluster), or, with
     * @p world, run against that shared fabric instead. Fault plans,
     * tree clusters and sharding need an owned world, and an owned
     * world rejects ClusterConfig::worker_jobs (only a shared fabric
     * tags workers with jobs); each throws std::invalid_argument.
     */
    explicit JobBase(const JobConfig &cfg,
                     const SharedWorld *world = nullptr);

    virtual ~JobBase();

    JobBase(const JobBase &) = delete;
    JobBase &operator=(const JobBase &) = delete;

    /** Execute the job to completion and collect results. */
    RunResult run();

    /**
     * Split-phase execution for shared-fabric scheduling: beginRun()
     * snapshots counters and schedules the initial events; the caller
     * drives the shared simulation; finishRun() assembles the result.
     * run() is exactly beginRun + drive + finishRun for owned jobs.
     */
    void beginRun();
    RunResult finishRun(std::string error);

    /** Has this job met one of its stop conditions? */
    bool finished() const { return stopped_; }

    sim::Simulation &simulation() { return *sim_; }
    const Cluster &cluster() const { return cluster_; }
    const JobConfig &config() const { return cfg_; }

    /** Worker @p i's agent (inspection by tests and examples). */
    rl::Agent &workerAgent(std::size_t i);

  protected:
    /** Per-worker simulation state. */
    struct WorkerCtx
    {
        std::size_t index = 0;
        net::Host *host = nullptr;
        std::unique_ptr<rl::Agent> agent;
        sim::Rng rng; ///< timing jitter stream
        IterationMetrics metrics;
        VectorAssembler rx;
        /**
         * This worker's codec, at the job's precision. Per worker, not
         * per job: sharded runs execute workers on different domain
         * threads and the codec keeps mutable counters.
         */
        PrePostProcessor ppp;
        ml::Vec pending_grad;     ///< gradient awaiting transmission
        sim::TimeNs lgc_end = 0;  ///< when the last LGC stage finished
        std::uint64_t round = 0;  ///< sync round / iteration index
        std::uint64_t ts = 0;     ///< async weight version (Algorithm 1)
    };

    /** Schedule the initial events (called once by run()). */
    virtual void start() = 0;

    /**
     * Populate RunResult::extras after the simulation drains: the base
     * records one fixed key set (switch buffers, slot pool, recovery,
     * quantization, faults, failover; 0 where a subsystem is absent);
     * subclasses add strategy-specific counters.
     */
    virtual void collectExtras(RunResult &res) const;

    /**
     * Run the LGC stage for @p w: computes the real gradient at the
     * current weights (snapshot semantics), charges the calibrated
     * component times, and invokes @p done when the stage finishes in
     * simulated time.
     */
    void scheduleLgc(WorkerCtx &w, std::function<void()> done);

    /** Charge and return a jittered weight-update duration. */
    sim::TimeNs chargeWeightUpdate(WorkerCtx &w);

    /** Record aggregation latency for this worker's iteration. */
    void chargeAggregation(WorkerCtx &w, sim::TimeNs dur)
    {
        w.metrics.add(IterComponent::kGradAggregation, dur);
    }

    /** Count one global iteration (weight update); updates curve and
     *  stop state. */
    void noteGlobalIteration();

    /** Cluster-average of the last-10-episode rewards. */
    double clusterAvgReward() const;

    /** Total episodes finished across workers. */
    std::uint64_t totalEpisodes() const;

    bool stopped() const { return stopped_; }

    /** The wire format gradients use on this job (cfg precision). */
    WireFormat gradientWire(bool iswitch_plane) const;

    /**
     * gradientWire at an explicit precision. Async-PS weight pulls
     * pass kFp32: the server's reply is authoritative state, not a
     * gradient, and always travels lossless.
     */
    WireFormat gradientWire(bool iswitch_plane,
                            net::Precision precision) const;

    /** Can frames be lost (link loss or an attached fault plan)? */
    bool lossyEnv() const;

    /** Should strategies arm retransmission timers? */
    bool recoveryEnabled() const { return recovery_on_; }

    /** Configure @p t against this job's policy iff recovery is on;
     *  unconfigured timers no-op, so call sites stay unconditional. */
    void configureTimer(RetxTimer &t)
    {
        if (recovery_on_)
            t.configure(*sim_, retx_, recovery_);
    }

    /**
     * Fixed delay when deferring work into another node's domain:
     * the conservative window width, so a mid-window handoff is
     * always a legal cross-domain schedule (now >= window start =>
     * now + hop >= window end). 1 ns on single-domain (star) fabrics.
     */
    sim::TimeNs domainHopDelay() const
    {
        return std::max<sim::TimeNs>(cluster_.domain_lookahead, 1);
    }

    /**
     * Run @p fn in the domain owning node @p n, at now +
     * domainHopDelay(), on every fabric and engine alike (so a
     * one-domain run behaves exactly like its sharded twin). Used to
     * introspect another domain's receive state (retransmit probes)
     * and to resend from the owning side.
     */
    void inDomainOf(const net::Node *n, std::function<void()> fn);

    /**
     * Complete @p t from a foreign domain: defers t.done() into the
     * domain of @p home (the node whose event chain armed the timer)
     * by one domainHopDelay(). Inline when recovery is off, so
     * lossless runs schedule zero extra events. The deferred done
     * cannot race a re-arm: re-arming requires a full network round
     * trip (>> one hop) after the completion that triggered it.
     */
    void deferDone(RetxTimer &t, const net::Node *home);

    /**
     * Guard one endpoint transfer from @p src to @p dst with @p t, in
     * @p src's domain right after the send: the one probe-and-resend
     * rule of the PS, ring and async-PS transfers (DESIGN.md §10, free
     * ack). Each timeout with live() true hops to @p dst's domain,
     * where missing() lists the segments the receiver still lacks
     * (none once it holds them all or has moved on), then hops back
     * and, if live() still holds, calls resend(seg) for each and counts
     * it. The timer stays armed until the completion path calls done()
     * (deferDone across domains) or a firing finds live() false. With
     * recovery off it arms nothing and allocates nothing.
     */
    template <class Live, class Missing, class Resend>
    void
    guardTransfer(RetxTimer &t, const net::Node *src, const net::Node *dst,
                  Live live, Missing missing, Resend resend)
    {
        if (!recovery_on_)
            return;
        t.configure(*sim_, retx_, recovery_);
        t.arm([this, src, dst, live, missing, resend]() -> std::size_t {
            if (!live())
                return 0;
            inDomainOf(dst, [this, src, live, missing, resend] {
                if (stopped())
                    return;
                std::vector<std::uint64_t> segs = missing();
                if (segs.empty())
                    return;
                inDomainOf(src, [this, live, resend, segs = std::move(segs)] {
                    if (!live())
                        return;
                    for (std::uint64_t seg : segs) {
                        resend(seg);
                        ++recovery_.retransmits;
                    }
                });
            });
            return 1;
        });
    }

    /**
     * Window-barrier callback (sharded runs only): invoked on the
     * owning thread after every conservative window, with all domains
     * quiescent. Async strategies publish their cross-domain version
     * snapshots here (DESIGN.md §15).
     */
    virtual void onShardBarrier() {}

    // ----- High-availability failover (DESIGN.md §16) -----

    /**
     * Aggregation-plane address worker @p w targets: its leaf switch,
     * or the promoted backup once an HA root has failed over (star
     * fabrics re-home directly; tree/fat-tree workers keep their ToR,
     * whose uplink re-parents instead).
     */
    net::Ipv4Addr aggIpOf(const WorkerCtx &w) const;

    /**
     * Strategy packet-handler front door: a kFailover control frame
     * re-homes the job (handleFailover) and returns true (the frame
     * carries no other payload). Everything else returns false.
     */
    bool checkFailoverFrame(const net::PacketPtr &pkt);

    /**
     * Re-home the job onto the promoted backup. Idempotent. Star
     * fabrics flip every dual-homed host's active uplink; tree/fat
     * fabrics need no host action (their child switches re-parent via
     * ControlPlane failover hooks).
     */
    void handleFailover();

    /** Job id stamped on this job's packets and member rows (0 for
     *  owned worlds). */
    std::uint8_t jobId() const { return job_id_; }

    /** Aggregator slots available to this job on the root switch
     *  (0 = unbounded pool: no streaming window needed). */
    std::uint32_t slotQuota() const { return slot_quota_; }

    JobConfig cfg_;
    std::unique_ptr<sim::Simulation> owned_sim_; ///< owned-world storage
    sim::Simulation *sim_ = nullptr; ///< the world (owned or shared)
    Cluster cluster_;
    std::vector<WorkerCtx> workers_;

    std::uint64_t global_iters_ = 0;
    sim::TimeNs last_update_time_ = 0;
    /**
     * Atomic because sharded runs read the stop flag from every
     * worker's domain thread while worker 0's domain writes it.
     * Within one conservative window the read is racy by design —
     * identical to serial order except for sub-lookahead event ties
     * (see JobConfig::shard).
     */
    std::atomic<bool> stopped_{false};
    bool reached_target_ = false;
    sim::TimeSeries curve_;
    /** Shared recovery counters (all strategies' timers feed here). */
    RecoveryStats recovery_;

  private:
    /** Build the simulation and cluster this job owns. */
    void buildOwnedWorld();
    /** View @p world's fabric: our worker slice, every switch. */
    void joinSharedWorld(const SharedWorld &world);
    void initWorkers();
    void resolveRetx();
    void checkStop();
    void installFaults();

    /** Arm the periodic HA tick (no-op without a backup). */
    void scheduleHaTick();
    /** One HA tick: primary heartbeat + backup liveness check. */
    void haTick();

    /**
     * Switch sim_ to the domain-sharded engine per the cluster's shard
     * plan and give every domain a private PacketPool. Owned-world
     * only; throws unless the cluster is multi-rack (any strategy,
     * lossy or lossless — DESIGN.md §15).
     */
    void enableSharding();

    /**
     * Worker state mirrored for cross-domain readers. Sharded runs
     * sample reward curves and stop conditions from worker 0's domain
     * while other workers' agents are stepping on their own threads;
     * reading the agents directly would race. Each worker republishes
     * after every gradient computation (the only point its episode
     * state changes), so the snapshot equals the live value at every
     * event boundary — serial runs read it too and are byte-identical.
     */
    struct PublishedWorker
    {
        std::atomic<double> reward{0.0};
        std::atomic<std::uint64_t> episodes{0};
    };

    /** Refresh @p w's published snapshot from its agent. */
    void publishWorker(const WorkerCtx &w);

    /** Pool counters summed across the calling thread's pool and every
     *  domain's. */
    net::PacketPool::Stats pooledPacketStats() const;

    std::unique_ptr<net::FaultInjector> injector_;
    /** deque: atomics are neither movable nor copyable. */
    std::deque<PublishedWorker> published_;
    /**
     * This job's frame pool, freed with the job: run() installs it for
     * a one-domain run, and the destructor while the world unwinds.
     */
    net::PacketPool own_pool_;
    /** A sharded run's per-domain frame pool, and the Scope that
     *  installs it on the thread running the domain's window. */
    struct DomainPool
    {
        net::PacketPool pool;
        std::optional<net::PacketPool::Scope> installed;
    };
    /** Per-domain packet pools for sharded runs (index = domain id). */
    std::deque<DomainPool> domain_pools_;
    RetransmitPolicy retx_; ///< resolved policy (timeout never 0)
    bool recovery_on_ = false;
    std::uint8_t job_id_ = 0;
    std::uint32_t slot_quota_ = 0;
    /** Atomic: kFailover frames can land on any domain's thread. */
    std::atomic<bool> ha_failed_over_{false};

    /** beginRun() snapshots, consumed by finishRun(). */
    std::uint64_t run_pool_sealed0_ = 0;
    std::uint64_t run_pool_pallocs0_ = 0;
    std::uint64_t run_pool_fallocs0_ = 0;
    std::uint64_t run_pool_preuse0_ = 0;
    std::uint64_t run_pool_freuse0_ = 0;
    std::uint64_t run_events0_ = 0;
    std::chrono::steady_clock::time_point run_t0_;
};

/**
 * Construct the right Job subclass for @p cfg, on its own world or,
 * with @p world, on that shared switch fabric (multi-job switch
 * sharing). Only the iSwitch strategies can share a switch; anything
 * else throws std::invalid_argument.
 */
std::unique_ptr<JobBase> makeJob(const JobConfig &cfg,
                                 const SharedWorld *world = nullptr);

/** Convenience: build, run, destroy. */
RunResult runJob(const JobConfig &cfg);

} // namespace isw::dist

#endif // ISW_DIST_STRATEGY_HH
