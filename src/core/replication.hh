/**
 * @file
 * Primary -> backup state replication for the HA switch layer
 * (DESIGN.md §16).
 *
 * The primary aggregation switch streams three kinds of kTosRepl
 * frames to its designated backup over a dedicated peer link:
 *
 *  - State frames: a full snapshot of one in-flight segment buffer —
 *    accumulated words, contribution count, and the complete
 *    contributor set (IPv4 bits appended to the value words). Replace
 *    semantics: the backup overwrites its replica wholesale, so
 *    reordered or re-applied frames are idempotent and the replica's
 *    contributor set is never a partial view (a partial view would let
 *    a post-failover retransmission double-fold).
 *
 *  - Result frames: a completed segment's aggregate plus its
 *    completion sequence number. These feed the backup's result cache
 *    so post-failover Help requests are served without recomputation.
 *
 *  - Membership frames: mirrored Join/Leave events with the member's
 *    IP packed into the upper value bits (the original Join value only
 *    uses the low 32).
 *
 * Replication mode is configurable: per-harvest synchronous (every
 * accepted contribution streams immediately) or batched-lazy (dirty
 * segments are flushed when a bounded staleness window expires). In
 * either mode, results and membership replicate immediately — they are
 * the correctness floor; state frames only save recomputation.
 */

#ifndef ISW_CORE_REPLICATION_HH
#define ISW_CORE_REPLICATION_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "net/packet.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace isw::core {

class Accelerator;

/** When the primary streams segment-buffer state to the backup. */
enum class ReplicationMode : std::uint8_t {
    kPerHarvest,  ///< synchronous: every accepted contribution
    kBatchedLazy, ///< batched: dirty set flushed per staleness window
};

struct ReplicationConfig
{
    ReplicationMode mode = ReplicationMode::kPerHarvest;
    /** Max age of un-replicated state in kBatchedLazy mode. */
    sim::TimeNs staleness_window = 2 * sim::kMsec;
};

/** Primary-side counters of what was streamed. */
struct ReplicationStats
{
    std::uint64_t state_frames = 0;
    std::uint64_t result_frames = 0;
    std::uint64_t member_frames = 0; ///< mirrored Join, Leave and SetH
};

/**
 * transfer_id layout of replication frames. Bit 63 discriminates
 * state from result frames; it can never collide with a contributor
 * count or sequence number, and member frames are ControlPayloads.
 */
constexpr std::uint64_t kReplResultBit = 1ULL << 63;

/** State frame: contributor-set size in the high word, count low. */
constexpr std::uint64_t
packReplState(std::uint32_t contributors, std::uint32_t count)
{
    return (std::uint64_t{contributors} << 32) | count;
}

constexpr std::uint32_t
replContributors(std::uint64_t tid)
{
    return static_cast<std::uint32_t>((tid >> 32) & 0x7FFFFFFF);
}

constexpr std::uint32_t
replCount(std::uint64_t tid)
{
    return static_cast<std::uint32_t>(tid & 0xFFFFFFFF);
}

/** Result frame: completion sequence high (31 bits), count low. */
constexpr std::uint64_t
packReplResult(std::uint64_t seq, std::uint32_t count)
{
    return kReplResultBit | ((seq & 0x7FFFFFFFULL) << 32) | count;
}

constexpr std::uint64_t
replResultSeq(std::uint64_t tid)
{
    return (tid >> 32) & 0x7FFFFFFF;
}

/** Control mirror value: member IP high, the original Join value (bits
 *  0..31: port, type bit, job) or SetH's H low; 0 for a Leave. */
constexpr std::uint64_t
packReplMember(std::uint32_t ip_bits, std::uint64_t value)
{
    return (std::uint64_t{ip_bits} << 32) | (value & 0xFFFFFFFFULL);
}

constexpr std::uint32_t
replMemberIp(std::uint64_t v)
{
    return static_cast<std::uint32_t>(v >> 32);
}

constexpr std::uint64_t
replMemberJoinValue(std::uint64_t v)
{
    return v & 0xFFFFFFFFULL;
}

/**
 * The primary-side replication engine. Owned by the primary
 * ProgrammableSwitch; the switch feeds it accept/result/membership
 * events and provides the frame transport (addressing, ToS stamping,
 * and the actual egress all stay in the switch).
 */
class ReplicatedAccelerator
{
  public:
    /** Hand one replication payload to the switch for egress. */
    using SendFn = std::function<void(net::Payload payload)>;

    ReplicatedAccelerator(sim::Simulation &sim, Accelerator &accel,
                          ReplicationConfig cfg, SendFn send);

    /** A contribution was folded into a still-incomplete segment. */
    void onAccept(std::uint64_t key);

    /** A segment completed with sequence @p seq; stream the result. */
    void onResult(std::uint64_t key, const std::vector<float> &values,
                  std::uint32_t wire_floats, std::uint32_t count,
                  std::uint64_t seq, net::Precision prec, std::int8_t qexp);

    /** Mirror a Join, Leave or SetH from member @p member_ip_bits;
     *  @p value is the Join value, 0 for a Leave, or SetH's H. */
    void onControl(net::Action action, std::uint32_t member_ip_bits,
                   std::uint64_t value);

    /** Periodic pump (piggybacks on the heartbeat): flushes the dirty
     *  set once the staleness window expires. kBatchedLazy only. */
    void pump();

    const ReplicationConfig &config() const { return cfg_; }
    const ReplicationStats &stats() const { return stats_; }

  private:
    void sendState(std::uint64_t key);
    void flushDirty();

    sim::Simulation &sim_;
    Accelerator &accel_;
    ReplicationConfig cfg_;
    SendFn send_;
    /** Insertion-ordered dirty set: deterministic flush order keeps
     *  serial and sharded runs byte-identical. */
    std::vector<std::uint64_t> dirty_order_;
    std::unordered_set<std::uint64_t> dirty_;
    sim::TimeNs last_flush_ = 0;
    ReplicationStats stats_;
};

} // namespace isw::core

#endif // ISW_CORE_REPLICATION_HH
