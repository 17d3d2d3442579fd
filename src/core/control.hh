/**
 * @file
 * iSwitch control plane: membership table (paper Figure 9) and the
 * control-message state machine (paper Table 2).
 */

#ifndef ISW_CORE_CONTROL_HH
#define ISW_CORE_CONTROL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hh"
#include "sim/time.hh"

namespace isw::core {

/** Membership entry type (Figure 9's Type column). */
enum class MemberType : std::uint8_t { kWorker = 0, kSwitch = 1 };

/** One row of the membership table. */
struct Member
{
    std::uint32_t id = 0;
    net::Ipv4Addr ip;
    std::uint16_t udp_port = 0;
    MemberType type = MemberType::kWorker;
    std::uint8_t job = 0; ///< training job this member belongs to
};

/**
 * Pack a Join message's Value field: low 16 bits the member's UDP
 * port, bit 16 the member type, bits 24..31 the member's job id
 * (zero for the sole job, keeping the value unchanged from the
 * single-job format).
 */
constexpr std::uint64_t
encodeJoinValue(std::uint16_t udp_port, MemberType type,
                std::uint8_t job = 0)
{
    return std::uint64_t{udp_port} |
           (std::uint64_t{type == MemberType::kSwitch} << 16) |
           (std::uint64_t{job} << 24);
}

/** Unpack the UDP port from a Join Value. */
constexpr std::uint16_t
joinValuePort(std::uint64_t v)
{
    return static_cast<std::uint16_t>(v & 0xFFFF);
}

/** Unpack the member type from a Join Value. */
constexpr MemberType
joinValueType(std::uint64_t v)
{
    return (v >> 16) & 1 ? MemberType::kSwitch : MemberType::kWorker;
}

/** Unpack the job id from a Join Value. */
constexpr std::uint8_t
joinValueJob(std::uint64_t v)
{
    return static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

/** Pack a Help request Value: completion sequence number + segment. */
constexpr std::uint64_t
helpValue(std::uint64_t want_seq, std::uint64_t seg)
{
    return (want_seq << 32) | (seg & 0xFFFFFFFFULL);
}

/** Segment of a Help request Value. */
constexpr std::uint64_t
helpSeg(std::uint64_t v)
{
    return v & 0xFFFFFFFFULL;
}

/** Wanted completion sequence of a Help request Value. */
constexpr std::uint64_t
helpSeq(std::uint64_t v)
{
    return v >> 32;
}

/**
 * The light-weight membership table maintained in the control plane.
 * Keyed by member IP; ids are assigned on join and stable until leave.
 */
class MembershipTable
{
  public:
    /**
     * Add or refresh a member; returns its id. Idempotent per IP.
     * @p changed (optional) is set true only when the table actually
     * changed — a new row, or an existing row's port/type/job updated —
     * so a duplicate Join does not look like a membership event.
     */
    std::uint32_t join(net::Ipv4Addr ip, std::uint16_t udp_port,
                       MemberType type, std::uint8_t job = 0,
                       bool *changed = nullptr);

    /** Remove a member; returns true if it existed. */
    bool leave(net::Ipv4Addr ip);

    /** Look up a member by IP. */
    std::optional<Member> find(net::Ipv4Addr ip) const;

    /**
     * All members in id order: the table's own rows, so a broadcast
     * walks them without a copy. Valid until the next join or leave.
     */
    const std::vector<Member> &members() const { return rows_; }

    std::size_t size() const { return rows_.size(); }
    bool empty() const { return rows_.empty(); }

  private:
    /** Rows in id order: ids only grow, so a join appends. */
    std::vector<Member> rows_;
    std::map<net::Ipv4Addr, std::uint32_t> ids_;
    std::uint32_t next_id_ = 0;
};

/**
 * Heartbeat-based failure detector (HA layer, DESIGN.md §16). The
 * primary beats every `period`; the backup calls check() on its own
 * timer and classifies the primary by consecutive missed periods:
 * alive (< 2 misses — one miss is normal jitter between the beat and
 * check phases), suspect (>= 2), confirmed dead (>= miss_threshold).
 * Pure bookkeeping — no events, no network — so it is trivially
 * domain-safe: beat() and check() both run in the backup's domain.
 */
class HeartbeatMonitor
{
  public:
    enum class State : std::uint8_t { kAlive, kSuspect, kDead };

    void
    configure(sim::TimeNs period, std::uint32_t miss_threshold,
              sim::TimeNs now)
    {
        period_ = period;
        miss_threshold_ = miss_threshold;
        last_beat_ = now; // baseline: primary assumed alive at start
    }

    /** A beat arrived from the primary. */
    void
    beat(sim::TimeNs now)
    {
        last_beat_ = now;
        peak_misses_ = 0;
        ++beats_;
    }

    /** Re-evaluate the primary's state at @p now. */
    State
    check(sim::TimeNs now)
    {
        const std::uint64_t misses =
            period_ > 0 && now > last_beat_
                ? static_cast<std::uint64_t>((now - last_beat_) / period_)
                : 0;
        if (misses > peak_misses_) {
            missed_ += misses - peak_misses_;
            peak_misses_ = misses;
        }
        if (misses >= miss_threshold_)
            return State::kDead;
        return misses >= 2 ? State::kSuspect : State::kAlive;
    }

    std::uint64_t beats() const { return beats_; }
    std::uint64_t missed() const { return missed_; }

  private:
    sim::TimeNs period_ = 0;
    std::uint32_t miss_threshold_ = 3;
    sim::TimeNs last_beat_ = 0;
    std::uint64_t peak_misses_ = 0; ///< misses already booked since last beat
    std::uint64_t beats_ = 0;
    std::uint64_t missed_ = 0;
};

/**
 * Control-plane logic, decoupled from the switch through callbacks so
 * it can be unit-tested without a network.
 */
class ControlPlane
{
  public:
    /** Operations the control plane invokes on its switch. */
    struct Hooks
    {
        /** Send a control message to a member. */
        std::function<void(const Member &, net::ControlPayload)> send_control;
        /** Clear accelerator buffers/counters (Reset). */
        std::function<void()> reset_accel;
        /** Pin aggregation threshold H of the sender's job (SetH). */
        std::function<void(std::uint32_t h, std::uint8_t job)> set_threshold;
        /**
         * Force-broadcast a partially aggregated segment (FBcast).
         * @p key is the packed Seg word: the control plane stamps the
         * requester's job id into the high bits (bare seg for job 0).
         */
        std::function<void(std::uint64_t key)> force_broadcast;
        /**
         * Serve a Help request. The request value packs the wanted
         * completion sequence number in the high 32 bits and the
         * segment in the low 32 (helpValue()). Returns false when the
         * switch has no matching completed copy; the control plane
         * then clears the segment's partial state and asks all workers
         * to retransmit it.
         */
        std::function<bool(std::uint64_t request, const Member &requester)>
            resend_cached;
        /** Drop a segment's partial aggregation state (Help retry).
         *  @p key is the packed Seg word (requester's job stamped in). */
        std::function<void(std::uint64_t key)> clear_segment;
        /** Membership changed (auto-H recomputation lives here). */
        std::function<void()> membership_changed;
        /**
         * A member actually left (fires after the table row is gone).
         * The switch reclaims the leaver's in-flight aggregator slots
         * here so a crashed worker's partials don't pin buffers until
         * round end.
         */
        std::function<void(const Member &)> member_left;
        /** A liveness beat arrived (HA backup role). No ack. */
        std::function<void(net::Ipv4Addr)> heartbeat;
        /**
         * A kFailover frame arrived: the backup promoted itself and
         * this switch must re-home to it (flip its uplink). No ack.
         */
        std::function<void()> failover;
    };

    explicit ControlPlane(Hooks hooks) : hooks_(std::move(hooks)) {}

    /**
     * Process one control message arriving from @p src_ip/@p src_port.
     * Replies (Ack etc.) flow through the hooks.
     */
    void handle(net::Ipv4Addr src_ip, std::uint16_t src_port,
                const net::ControlPayload &msg);

    /**
     * Apply a membership action for member @p ip through the hooks,
     * replying to no one: a Join (@p value is the Join value), a Leave
     * (@p value unused) or a SetH (@p value is H, pinned for @p ip's
     * job). handle() runs every Join, Leave and SetH through here
     * before it acks; an HA backup applies the events its primary
     * mirrors, and ProgrammableSwitch::adminJoin joins members
     * without the handshake. Other actions are ignored.
     * @return the ack's verdict: false for a Leave from a non-member,
     *         a SetH the switch cannot pin, or another action.
     */
    bool applyMembership(net::Action action, net::Ipv4Addr ip,
                         std::uint64_t value);

    MembershipTable &table() { return table_; }
    const MembershipTable &table() const { return table_; }

    /** Workers currently halted? (Halt toggles, Join clears.) */
    bool halted() const { return halted_; }

  private:
    void ack(net::Ipv4Addr ip, std::uint16_t port, bool ok);

    Hooks hooks_;
    MembershipTable table_;
    bool halted_ = false;
};

} // namespace isw::core

#endif // ISW_CORE_CONTROL_HH
