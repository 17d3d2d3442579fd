/**
 * @file
 * Cluster builders: the paper's two evaluation fabrics, and a deeper
 * one.
 *
 *  - Star (main cluster, §5.3): N workers (+ optional PS node) on one
 *    programmable switch over 10 GbE.
 *  - Tree (scalability setup, §5.3 / Figure 10): racks of `per_rack`
 *    workers under ToR switches, ToRs under one core switch over a
 *    faster uplink, with hierarchical aggregation membership wired.
 *  - Fat-tree (datacenter scale): racks under ToRs, ToRs grouped into
 *    pods under AGG switches, AGGs under one core — three levels of
 *    hierarchical aggregation (ToR -> AGG -> Core), the regime
 *    SwitchML/NetReduce evaluate.
 *
 * The tree and the fat-tree come from one routine: the tree is the
 * fat-tree without its AGG layer. Both also assign shard domains
 * (sim/shard.hh): each rack (ToR + its hosts) is one domain, the
 * AGG/core layer is domain 0, and the conservative lookahead is the
 * propagation delay of the rack-boundary (ToR <-> parent) links.
 */

#ifndef ISW_DIST_CLUSTER_HH
#define ISW_DIST_CLUSTER_HH

#include <memory>
#include <vector>

#include "core/programmable_switch.hh"
#include "net/topology.hh"

namespace isw::dist {

/** iSwitch service UDP port. */
constexpr std::uint16_t kSwitchPort = 9000;
/** Worker-side UDP port. */
constexpr std::uint16_t kWorkerPort = 9999;
/** Parameter-server UDP port. */
constexpr std::uint16_t kPsPort = 9998;

/**
 * High-availability layer (DESIGN.md §16): a designated backup switch
 * mirrors the root's membership and segment state and takes over on
 * confirmed primary death. Star fabrics get a shadow switch with
 * dual-homed hosts; tree/fat-tree fabrics get a second root-level
 * switch with pre-wired failover uplinks from the root's children.
 */
struct HaConfig
{
    bool with_backup = false;
    core::ReplicationMode repl_mode = core::ReplicationMode::kPerHarvest;
    /** Max age of un-replicated state (kBatchedLazy mode only). */
    sim::TimeNs staleness_window = 2 * sim::kMsec;
    /** Primary heartbeat period; also the backup's check cadence. */
    sim::TimeNs heartbeat_period = 5 * sim::kMsec;
    /** Consecutive missed periods before confirmed-dead. */
    std::uint32_t miss_threshold = 3;
};

/** Knobs of all three builders (each field says where it applies). */
struct ClusterConfig
{
    std::size_t num_workers = 4;
    bool with_ps = false;              ///< add a parameter-server host
    /** PS hosts when with_ps (every fabric; > 1 = a sharded sync PS).
     *  Jobs set it from JobConfig::ps_shards. */
    std::size_t ps_shards = 1;
    net::LinkConfig edge_link{};       ///< host <-> switch (10 GbE)
    net::LinkConfig uplink{40e9, 200, 0.0}; ///< ToR <-> parent (tree/fat)
    std::size_t per_rack = 3;          ///< workers per rack (tree/fat)
    std::size_t racks_per_pod = 4;     ///< ToRs per AGG (fat-tree only)
    net::LinkConfig core_link{100e9, 300, 0.0}; ///< AGG <-> core (fat)
    core::AcceleratorConfig accel{};   ///< accelerator parameters
    net::SwitchConfig switch_cfg{};    ///< base data-plane parameters
    /**
     * Per-worker job tags for multi-job switch sharing (star only):
     * runSharedJobs sets them, and an owned job rejects them. Empty =
     * every worker belongs to job 0. When set, size must equal
     * num_workers; worker i adminJoins with job worker_jobs[i].
     */
    std::vector<std::uint8_t> worker_jobs;
    /** High-availability primary/backup configuration. */
    HaConfig ha;
};

/** A built cluster: topology plus the handles strategies need. */
struct Cluster
{
    std::unique_ptr<net::Topology> topo;
    std::vector<net::Host *> workers;
    net::Host *ps = nullptr;
    /** All PS shard hosts (size 1 unless sharding; ps == shards[0]). */
    std::vector<net::Host *> ps_shards;
    /** Leaf switches in rack order (the single switch for a star). */
    std::vector<core::ProgrammableSwitch *> leaves;
    /** Pod aggregation switches in pod order (fat-tree only). */
    std::vector<core::ProgrammableSwitch *> aggs;
    /** Aggregation root (== leaves[0] for a star). */
    core::ProgrammableSwitch *root = nullptr;
    /** HA backup switch (nullptr unless ClusterConfig::ha.with_backup). */
    core::ProgrammableSwitch *backup = nullptr;
    /**
     * Every link touching the primary (root) switch, recorded so fault
     * plans with switch crashes / control partitions can attach the
     * injector. Backup-side links are deliberately excluded — they
     * must stay up through a primary crash.
     */
    std::vector<net::Link *> primary_links;

    /** Leaf switch worker @p i attaches to. */
    core::ProgrammableSwitch *leafOf(std::size_t i) const;

    /**
     * Every aggregation switch once: the leaves, the AGGs, the root
     * unless it is also a leaf (a star), then the HA backup. Code that
     * must reach every switch that folds contributions (dedupe, datapath
     * counters) walks this list.
     */
    std::vector<core::ProgrammableSwitch *> switches() const;

    std::size_t workersPerRack = 0; ///< 0 for star clusters

    /**
     * Shard-domain plan baked by the builder: rack r is domain r+1,
     * the switch fabric above the ToRs is domain 0. 1 means "nothing
     * to parallelize" (star). See sim/shard.hh.
     */
    std::size_t sim_domains = 1;
    /** Lookahead = min propagation among domain-boundary links. */
    sim::TimeNs domain_lookahead = 0;
};

/** Build the single-switch main cluster. */
Cluster buildStarCluster(sim::Simulation &s, const ClusterConfig &cfg);

/** Build the two-layer rack-scale cluster with hierarchical joins. */
Cluster buildTreeCluster(sim::Simulation &s, const ClusterConfig &cfg);

/**
 * Build the three-layer ToR-AGG-Core fat-tree: ceil(num_workers /
 * per_rack) racks, grouped racks_per_pod to a pod, one AGG switch per
 * pod, one core. Aggregation is hierarchical at every level (ToR
 * threshold = rack occupancy, AGG threshold = ToRs in the pod, core
 * threshold = pods).
 */
Cluster buildFatTreeCluster(sim::Simulation &s, const ClusterConfig &cfg);

} // namespace isw::dist

#endif // ISW_DIST_CLUSTER_HH
