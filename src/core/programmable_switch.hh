/**
 * @file
 * The iSwitch programmable switch (paper Figure 6): a regular
 * EthSwitch whose input arbiter diverts ToS-tagged packets to the
 * aggregation accelerator and the control plane, leaving normal
 * traffic untouched.
 *
 * Hierarchical aggregation (paper §3.4): a switch configured with a
 * parent forwards each locally completed segment upward as a fresh
 * contribution; the root broadcasts completed segments downward as
 * result packets, which lower switches fan out to their members.
 */

#ifndef ISW_CORE_PROGRAMMABLE_SWITCH_HH
#define ISW_CORE_PROGRAMMABLE_SWITCH_HH

#include <bitset>
#include <memory>
#include <memory_resource>
#include <unordered_map>

#include "core/accelerator.hh"
#include "core/control.hh"
#include "core/replication.hh"
#include "net/switch.hh"

namespace isw::core {

/** Configuration of a programmable switch. */
struct ProgrammableSwitchConfig
{
    net::SwitchConfig base;           ///< regular data-plane parameters
    AcceleratorConfig accel;          ///< aggregation datapath
    net::Ipv4Addr ip;                 ///< switch's own address
    std::uint16_t udp_port = 9000;    ///< iSwitch service port
    net::Ipv4Addr parent;             ///< upstream switch (unset = root)
    std::uint16_t parent_port = 9000; ///< upstream service port
    /**
     * Result-cache retention window in segment indices. Synchronous
     * training stripes the round number into the Seg field, so indices
     * grow without bound; entries older than the highest-seen index
     * minus this window are evicted (models finite switch SRAM).
     */
    std::uint64_t cache_window = 1ULL << 13;
};

/** An EthSwitch extended with the iSwitch accelerator. */
class ProgrammableSwitch : public net::EthSwitch
{
  public:
    ProgrammableSwitch(sim::Simulation &s, std::string name,
                       std::size_t num_ports,
                       ProgrammableSwitchConfig cfg = {});

    Accelerator &accelerator() { return accel_; }
    ControlPlane &controlPlane() { return ctrl_; }
    net::Ipv4Addr ip() const { return cfg_.ip; }
    bool isRoot() const { return cfg_.parent.isUnspecified(); }

    /**
     * Register a member without the Join handshake (used by tests and
     * by harness builders that wire clusters programmatically).
     * @p job tags the member's training job for multi-job sharing.
     */
    void adminJoin(net::Ipv4Addr ip, std::uint16_t udp_port, MemberType type,
                   std::uint8_t job = 0);

    /**
     * Pin @p job's aggregation threshold H (the control plane's SetH).
     * An unpinned job's H tracks its member count (the paper's
     * default: H = number of children).
     */
    void setManualThreshold(std::uint32_t h, std::uint8_t job = 0);

    /** Completed results re-sendable via Help, keyed by segment. */
    std::size_t cachedResults() const { return result_cache_.size(); }

    // ----- High-availability roles (DESIGN.md §16) -----

    /**
     * Make this switch the HA primary: every accepted partial,
     * completed result, and membership event streams to the backup at
     * @p backup_ip as kTosRepl frames (a route to the backup must be
     * installed by the builder).
     */
    void enableHaPrimary(net::Ipv4Addr backup_ip,
                         std::uint16_t backup_port, ReplicationConfig repl);

    /**
     * Make this switch the HA backup: it applies replication frames,
     * feeds heartbeats into a HeartbeatMonitor, and on confirmed
     * primary death promotes itself — broadcasting kFailover to every
     * member so they re-home.
     */
    void enableHaBackup(sim::TimeNs heartbeat_period,
                        std::uint32_t miss_threshold);

    /**
     * Pre-wire the failover uplink of a child switch under an HA
     * root: on receiving kFailover it re-parents to @p new_parent and
     * makes @p port its default (uplink) port.
     */
    void setFailoverUplink(net::Ipv4Addr new_parent, std::size_t port);

    /** One primary HA tick: lazy-replication pump plus a heartbeat. */
    void haBeat();

    /** One backup HA tick: re-evaluate the primary's liveness.
     *  Returns true exactly once — on the call that promotes. */
    bool haCheckPeer();

    bool haPromoted() const { return ha_promoted_; }
    sim::TimeNs haPromoteTime() const { return ha_promote_time_; }
    const HeartbeatMonitor &haMonitor() const { return ha_monitor_; }
    /** Primary-side replication counters (nullptr unless primary). */
    const ReplicatedAccelerator *replication() const { return repl_.get(); }
    /** Backup-side apply counters. */
    std::uint64_t haStateApplied() const { return ha_state_applied_; }
    std::uint64_t haResultsApplied() const { return ha_results_applied_; }
    std::uint64_t haMembersApplied() const { return ha_members_applied_; }

  protected:
    bool interceptIngress(const net::PacketPtr &pkt,
                          std::size_t in_port) override;

  private:
    /** A completed segment kept for Help-based recovery. */
    struct CachedResult
    {
        std::vector<float> values;
        std::uint32_t wire_floats = 0;
        std::uint32_t count = 0;
        std::uint64_t seq = 0; ///< how many completions this seg has had
        /** Wire word format of `values` (quantized datapaths). */
        net::Precision prec = net::Precision::kFp32;
        std::int8_t qexp = 0;
        /** `values` is a harvested sum, whose accumulator the slab drew
         *  from the frame pool (replicas included), so it goes back to
         *  the pool when the entry is replaced or pruned. A copy of an
         *  upstream result is freed instead: the pool never handed it
         *  out, and its demand is capped by the frames in flight. */
        bool pooled = false;
    };

    void onEmit(std::uint64_t key, SegState sum);
    void onControl(const net::PacketPtr &pkt);
    void onResult(const net::PacketPtr &pkt);

    /** Apply one replication frame (backup role). */
    void onRepl(const net::PacketPtr &pkt);

    /** Backup self-promotion: broadcast kFailover to all members. */
    void promote();

    /** Child-switch failover: flip the uplink to the promoted backup. */
    void adoptFailoverUplink();

    /** Egress one replication payload toward the backup. */
    void sendReplPayload(net::Payload payload);

    /** Fan a completed segment out to its job's members (result plane).
     *  @p key is the packed Seg word. */
    void broadcastResult(std::uint64_t key, const CachedResult &res);

    /** Send one result packet to a member. */
    void sendResultTo(const Member &m, std::uint64_t key,
                      const CachedResult &res);

    void sendControlTo(const Member &m, net::ControlPayload msg);

    /** Build a frame from this switch's address and service port to
     *  @p dst:@p dst_port and forward it: every frame the switch
     *  originates goes through here. @p payload is any net::Payload
     *  alternative, moved straight into the frame. */
    template <class P>
    void sendFrame(net::Ipv4Addr dst, std::uint16_t dst_port,
                   std::uint8_t tos, P &&payload);

    /** Nack a contribution that bounced off a busy aggregator slot. */
    void sendNack(std::uint8_t job, std::uint64_t seg, std::uint32_t src);

    /** Set each unpinned job's H to its member count (1 with none). */
    void refreshThreshold();

    /** Hand a cached result's buffer back to the frame pool if it came
     *  from there. */
    static void releaseValues(CachedResult &res);

    /** Discard Seg word @p key's partial, handing its accumulator back
     *  to the frame pool. */
    void dropPartial(std::uint64_t key);

    /** Cache @p res as Seg word @p key's result (replacing an older
     *  completion) and prune the cache. */
    void storeResult(std::uint64_t key, CachedResult &&res);

    /** Evict cache entries that fell out of the retention window. */
    void pruneCache(std::uint64_t latest_key);

    ProgrammableSwitchConfig cfg_;
    Accelerator accel_;
    ControlPlane ctrl_;
    /** Jobs whose H was pinned (setManualThreshold / SetH). */
    std::bitset<256> pinned_h_;
    net::MacAddr mac_;
    /**
     * Node storage of the two caches below: a pruned entry's node is
     * reused by a later segment, so the steady insert-and-prune stream
     * allocates nothing. It is freed with the switch. Only node-sized
     * requests are pooled: a bucket array only grows, so a pooled one
     * would strand each outgrown block in a chunk of its size class
     * (0.4 MiB more peak RSS across fat64-sharded's switches). Chunks
     * stop growing at 2,048 nodes: the resource fills its newest chunk
     * before reusing freed nodes, so chunks that kept doubling touched
     * up to twice a cache's peak (sync-bigwire's true peak RSS read
     * 12.7 MiB against 11.9 MiB).
     */
    std::pmr::unsynchronized_pool_resource cache_nodes_{
        std::pmr::pool_options{.max_blocks_per_chunk = 2048,
                               .largest_required_pool_block = 256}};
    /** Caches are keyed by packed Seg word (bare seg for job 0). */
    std::pmr::unordered_map<std::uint64_t, CachedResult> result_cache_{
        &cache_nodes_};
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> seg_completions_{
        &cache_nodes_};
    /** Highest segment index seen, per job (cache eviction floors must
     *  not let one job's progress evict another job's entries). */
    std::unordered_map<std::uint8_t, std::uint64_t> max_seg_seen_;

    // ----- HA state (all roles default to off) -----
    std::unique_ptr<ReplicatedAccelerator> repl_; ///< primary role
    bool ha_primary_ = false;
    bool ha_backup_ = false;
    net::Ipv4Addr ha_peer_ip_;          ///< the backup (primary role)
    std::uint16_t ha_peer_port_ = 9000;
    HeartbeatMonitor ha_monitor_;       ///< backup role
    bool ha_promoted_ = false;
    sim::TimeNs ha_promote_time_ = 0;
    /** Pre-wired failover uplink (child switches of an HA root). */
    bool ha_has_failover_uplink_ = false;
    bool ha_failed_over_ = false;
    net::Ipv4Addr ha_failover_parent_;
    std::size_t ha_failover_port_ = 0;
    /** Backup-side apply counters (observability). */
    std::uint64_t ha_state_applied_ = 0;
    std::uint64_t ha_results_applied_ = 0;
    std::uint64_t ha_members_applied_ = 0;
};

} // namespace isw::core

#endif // ISW_CORE_PROGRAMMABLE_SWITCH_HH
