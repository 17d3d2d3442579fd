/**
 * @file
 * Bulk vector transport: chunk a flat float vector into MTU-sized
 * packets and reassemble on the far side.
 *
 * The wire size and the logical size are decoupled (DESIGN.md §2):
 * the network carries `wireBytes` worth of packets — the paper's model
 * sizes — while only the first `logicalFloats` slots hold real data.
 * Padding segments carry zero logical floats but full wire weight, so
 * timing is byte-accurate while training stays real.
 */

#ifndef ISW_DIST_TRANSPORT_HH
#define ISW_DIST_TRANSPORT_HH

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "core/protocol.hh"
#include "net/host.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace isw::dist {

class PrePostProcessor; // pipeline.hh

/** Host network-stack cost model (per logical message, not packet). */
struct HostOverhead
{
    /** Kernel/MPI cost to post one vector (or chunk) send. */
    sim::TimeNs send = 30 * sim::kUsec;
    /** Cost to deliver one completed vector to the application. */
    sim::TimeNs recv = 20 * sim::kUsec;
};

/** Shape of one vector on the wire. */
struct WireFormat
{
    std::uint64_t logical_floats = 0; ///< real data carried
    std::uint64_t wire_bytes = 0;     ///< bytes charged on the network
    bool iswitch_plane = false;       ///< 8-byte vs 16-byte chunk header
    /** Word encoding of the float payload (DESIGN.md §14). */
    net::Precision precision = net::Precision::kFp32;

    /** Number of segments/packets. */
    std::uint64_t segments() const { return core::segCount(wire_bytes); }

    /**
     * Logical floats carried by one full segment: fp32 and int32 use
     * one 4-byte wire word per value; fp16 packs two halves per word,
     * doubling per-packet capacity.
     */
    std::uint64_t floatsPerSeg() const
    {
        return precision == net::Precision::kFp16 ? core::kFloatsPerSeg * 2
                                                  : core::kFloatsPerSeg;
    }

    /**
     * Smallest honest wire size for @p logical_floats at @p precision
     * (the forVector clamp). fp16 rounds an odd count up to a whole
     * half-pair word; int32 is one word per value like fp32.
     */
    static std::uint64_t
    minWireBytes(net::Precision precision, std::uint64_t logical_floats)
    {
        if (precision == net::Precision::kFp16)
            return (logical_floats + 1) / 2 * 4;
        return logical_floats * 4;
    }

    /** Clamp so the wire can actually carry the logical data. */
    static WireFormat
    forVector(std::uint64_t logical_floats, std::uint64_t wire_bytes,
              bool iswitch_plane,
              net::Precision precision = net::Precision::kFp32)
    {
        WireFormat f;
        f.logical_floats = logical_floats;
        f.wire_bytes =
            std::max(wire_bytes, minWireBytes(precision, logical_floats));
        f.iswitch_plane = iswitch_plane;
        f.precision = precision;
        return f;
    }
};

/**
 * Decoded transfer id of an endpoint transfer (sync PS, Ring-AllReduce,
 * async PS): one layout for every strategy. The round or sequence
 * number fills bits 20-62, so a late retransmission from an older round
 * never matches a newer round's assembler; the low 20 bits name the
 * worker, shard or ring step (each below 2^20); bit 63 is a flag that
 * sync PS sets on its result slices.
 */
struct XferId
{
    std::uint64_t seq = 0; ///< round or sequence number
    std::uint64_t low = 0; ///< worker, shard or ring step
    bool flag = false;
};

inline constexpr std::uint64_t kXferLowBits = 20;
inline constexpr std::uint64_t kXferFlag = 1ULL << 63;

/** Pack a transfer id (layout: XferId). */
constexpr std::uint64_t
encodeXfer(std::uint64_t seq, std::uint64_t low, bool flag = false)
{
    return (flag ? kXferFlag : 0) | (seq << kXferLowBits) | low;
}

/** Unpack a transfer id made by encodeXfer. */
constexpr XferId
decodeXfer(std::uint64_t id)
{
    return {(id & ~kXferFlag) >> kXferLowBits,
            id & ((1ULL << kXferLowBits) - 1), (id & kXferFlag) != 0};
}

/**
 * Enqueue the packets of one vector on @p host's NIC.
 *
 * All segments are posted back-to-back; link serialization paces them.
 * @param seg_base Added to each segment index (AllReduce uses it to
 *        address chunk ranges of the full vector).
 * @param job Job id stamped into each chunk (multi-job switch sharing).
 * @param ver_quota When nonzero, each chunk carries the slot-reuse
 *        version bit ((seg_base+seg)/ver_quota)&1 so a bounded switch
 *        pool can tell apart successive occupants of one slot.
 * @param ppp The sender's codec, which encodes each segment's logical
 *        floats into wire words (pipeline.hh). nullptr encodes fp32.
 * @param seg_qexp Optional per-segment forced shared exponents
 *        (indexed by segment offset within @p fmt), used by
 *        switch-aggregated int32 runs so every contributor encodes a
 *        segment at the agreed exponent. Segments beyond the span
 *        fall back to the codec's auto choice.
 */
void sendVector(net::Host &host, net::Ipv4Addr dst_ip,
                std::uint16_t dst_port, std::uint16_t src_port,
                std::uint8_t tos, std::uint64_t transfer_id,
                std::span<const float> logical, const WireFormat &fmt,
                std::uint64_t seg_base = 0, std::uint8_t job = 0,
                std::uint32_t ver_quota = 0,
                PrePostProcessor *ppp = nullptr,
                std::span<const std::int8_t> seg_qexp = {});

/**
 * Enqueue a single segment of a vector (loss-recovery resends).
 * @p seg is the segment offset within @p fmt; the packet carries
 * seg_base + seg like sendVector would. @p job / @p ver_quota /
 * @p ppp / @p seg_qexp as in sendVector.
 */
void sendVectorSegment(net::Host &host, net::Ipv4Addr dst_ip,
                       std::uint16_t dst_port, std::uint16_t src_port,
                       std::uint8_t tos, std::uint64_t transfer_id,
                       std::span<const float> logical, const WireFormat &fmt,
                       std::uint64_t seg, std::uint64_t seg_base = 0,
                       std::uint8_t job = 0, std::uint32_t ver_quota = 0,
                       PrePostProcessor *ppp = nullptr,
                       std::span<const std::int8_t> seg_qexp = {});

/**
 * Knobs of the universal retransmission layer (DESIGN.md §10): a
 * timeout re-sends whatever a transfer is still missing, backing off
 * exponentially up to a retry cap.
 */
struct RetransmitPolicy
{
    /** Initial timeout; 0 = auto (the job derives it from wire size). */
    sim::TimeNs timeout = 0;
    double backoff = 2.0;
    /** Retry cap; 0 disables recovery entirely. */
    std::uint32_t max_retries = 12;
    /**
     * Ceiling on the backed-off timeout. Without it, timeout *
     * backoff^retries overflows sim::TimeNs for large retry caps
     * (e.g. 2.0^63 already wraps a 20 ms base) and the wrapped value
     * schedules the "retry" in the past or absurdly far out. 5 sim
     * minutes is beyond any legitimate round time.
     */
    sim::TimeNs max_timeout = 300 * sim::kSec;
};

/**
 * Deterministic recovery counters, exported via RunResult::extras.
 *
 * Atomics: one RecoveryStats is shared by every RetxTimer of a job,
 * and under a sharded engine timers fire concurrently in different
 * domains within one window. Every update is a commutative accumulate
 * (sum / max / histogram bump) tied to a deterministic simulated
 * event, so the final totals are identical for any thread count.
 */
struct RecoveryStats
{
    std::atomic<std::uint64_t> timeouts{0};    ///< timer firings that found work
    std::atomic<std::uint64_t> retransmits{0}; ///< data segments re-sent
    std::atomic<std::uint64_t> help_requests{0}; ///< iSwitch Help messages sent
    std::atomic<std::uint64_t> fbcasts{0};     ///< FBcast nudges sent
    std::atomic<std::uint64_t> recoveries{0};  ///< guarded ops completed after >=1 timeout
    std::atomic<std::uint64_t> gave_up{0};     ///< retry cap exhausted
    std::atomic<sim::TimeNs> latency_total{0}; ///< sum of recovery latencies
    std::atomic<sim::TimeNs> latency_max{0};
    /**
     * Recovery latency histogram (first timeout -> completion):
     * {<1ms, <4ms, <16ms, <64ms, <256ms, >=256ms}.
     */
    std::array<std::atomic<std::uint64_t>, 6> latency_hist{};

    /** Record one recovery that took @p latency beyond first timeout. */
    void recordRecovery(sim::TimeNs latency);
};

/**
 * One guarded operation's retransmission timer.
 *
 * arm(resend) starts the clock; when it expires, @p resend is invoked
 * and must re-send whatever is still missing (or start to), returning
 * 0 when nothing is missing, which disarms the timer silently.
 * Otherwise the timer re-arms with exponential backoff until the
 * retry cap, then gives up. done() stops the timer and records the
 * recovery latency if any timeout had fired; re-arming an armed timer
 * counts as progress the same way. Endpoint transfers arm it through
 * JobBase::guardTransfer, which supplies the resend callback.
 *
 * Unconfigured timers (lossless runs) make every call a no-op, so
 * strategies can arm/done unconditionally without scheduling a single
 * event when recovery is off. Not movable: the pending event captures
 * `this` (store RetxTimers in a std::deque or node-based container).
 *
 * Domain safety (sharded engines): the pending event lives in the
 * queue of whatever domain called arm(), and the timer records that
 * domain so teardown from the owning thread cancels the right queue
 * (Simulation::cancelEventIn). All other operations — arm/done/
 * cancel/fire — must run in that same home domain; strategies whose
 * completion signal arrives in another domain defer the done() there
 * (JobBase::deferDone) instead of calling it in place.
 */
class RetxTimer
{
  public:
    using ResendFn = std::function<std::size_t()>;

    RetxTimer() = default;
    ~RetxTimer();

    RetxTimer(const RetxTimer &) = delete;
    RetxTimer &operator=(const RetxTimer &) = delete;

    /** Enable the timer; without this every operation is a no-op. */
    void configure(sim::Simulation &sim, const RetransmitPolicy &policy,
                   RecoveryStats &stats);

    /** (Re)start guarding an operation. */
    void arm(ResendFn resend);

    /** The guarded operation completed. */
    void done();

    /** Abandon silently (no recovery recorded). */
    void cancel();

    bool armed() const { return pending_ != sim::kInvalidEventId; }

  private:
    void fire();
    void schedule();
    void finish(bool record);

    sim::Simulation *sim_ = nullptr;
    const RetransmitPolicy *policy_ = nullptr;
    RecoveryStats *stats_ = nullptr;
    ResendFn resend_;
    sim::EventId pending_ = sim::kInvalidEventId;
    /** Domain whose queue holds pending_ (recorded at schedule time so
     *  teardown cancels the owning queue, not the caller's). */
    sim::DomainId pending_domain_ = 0;
    sim::TimeNs cur_timeout_ = 0;
    sim::TimeNs first_timeout_at_ = 0;
    std::uint32_t retries_ = 0;
};

/**
 * Reassembles one vector from its segment packets. The receive side
 * of the codec runs here: each landing segment's wire words are
 * decoded (decodeSeg, pipeline.hh) at the format's precision and the
 * chunk's exponent — so every strategy gets the post-processor stage
 * for free (DESIGN.md §14).
 */
class VectorAssembler
{
  public:
    VectorAssembler() = default;
    explicit VectorAssembler(WireFormat fmt) { reset(fmt); }

    /** Re-arm for a fresh vector of shape @p fmt. */
    void reset(WireFormat fmt);

    /** Re-arm with the same shape. */
    void reset();

    /**
     * Offer a segment (duplicate-safe). @p seg_base is subtracted from
     * the packet's segment index before placement.
     * @return true if this segment completed the vector.
     */
    bool offer(const net::ChunkPayload &chunk, std::uint64_t seg_base = 0);

    bool complete() const { return received_ == fmt_.segments(); }

    /** True if segment @p seg has already been received. */
    bool
    hasSegment(std::uint64_t seg) const
    {
        return seg < seen_.size() && seen_[seg];
    }
    std::size_t segmentsReceived() const { return received_; }
    const std::vector<float> &vector() const { return data_; }
    const WireFormat &format() const { return fmt_; }

    /** Segments not yet received (loss recovery). */
    std::vector<std::uint64_t> missingSegments() const;

    /**
     * Smallest segment index not yet received (== segments() once
     * complete). The sliding sender window of the bounded-slot
     * streaming mode is anchored here (DESIGN.md §11).
     */
    std::uint64_t firstMissing() const { return first_missing_; }

  private:
    WireFormat fmt_;
    std::vector<float> data_;
    std::vector<bool> seen_; ///< seen_[seg]: segment seg has landed
    std::uint64_t received_ = 0;
    std::uint64_t first_missing_ = 0;
};

/**
 * Assembles a *stream* of result vectors whose segments may interleave
 * across rounds (asynchronous iSwitch: the switch emits segment k the
 * moment its H-th contribution lands, so round r+1's early segments
 * can overtake round r's late ones). Segments are first-fit assigned
 * to the oldest round still missing them; a per-segment arrival
 * counter finds that round in O(1) instead of scanning.
 */
class MultiRoundAssembler
{
  public:
    MultiRoundAssembler() = default;
    explicit MultiRoundAssembler(WireFormat fmt) { reset(fmt); }

    void reset(WireFormat fmt)
    {
        fmt_ = fmt;
        rounds_.clear();
        arrivals_.assign(fmt_.segments(), 0);
        popped_ = 0;
    }

    /**
     * Offer a segment; returns true if the *front* round is complete.
     * A segment index outside the format is ignored.
     */
    bool offer(const net::ChunkPayload &chunk);

    bool frontComplete() const
    {
        return !rounds_.empty() && rounds_.front().complete();
    }

    /** Pop the completed front round's vector. */
    std::vector<float> popFront();

    /**
     * Segments the oldest pending round is still missing; every
     * segment when no round has started arriving (loss recovery).
     */
    std::vector<std::uint64_t> missingFront() const;

    std::size_t pendingRounds() const { return rounds_.size(); }

  private:
    WireFormat fmt_;
    std::deque<VectorAssembler> rounds_;
    /** arrivals_[seg] = rounds that already hold seg (absolute). */
    std::vector<std::uint64_t> arrivals_;
    std::uint64_t popped_ = 0; ///< completed rounds retired so far
};

} // namespace isw::dist

#endif // ISW_DIST_TRANSPORT_HH
