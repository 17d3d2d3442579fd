/**
 * @file
 * Synchronous iSwitch training (paper §4, Figure 1c): every worker
 * sends its tagged gradient packets to the switch; the in-switch
 * accelerator aggregates each segment on the fly and broadcasts it
 * the moment all H contributions land; workers apply sum/N locally.
 *
 * Loss recovery (paper §3.3 control plane): after sending, a worker
 * arms a retransmission timer; if result segments are missing it sends
 * Help(seg) to the switch, which re-sends a cached completed segment
 * or relays a retransmission request to all workers. The timer rides
 * the shared RetxTimer layer, so Help requests follow the same
 * exponential-backoff discipline as the unicast strategies.
 *
 * Bounded slot pools (DESIGN.md §11): when the switch grants this job
 * a finite aggregator-slot quota Q smaller than the tensor's segment
 * count, the worker streams the round through a sliding window of Q
 * unacknowledged segments anchored at its first missing result. The
 * window is self-clocking — segment s+Q is released only once result
 * s arrived — so at most Q distinct segments are ever in flight and a
 * lossless run never bounces off a busy slot. Busy-slot Nacks (loss
 * reordering) re-send after an escalating delay.
 */

#ifndef ISW_DIST_ISWITCH_SYNC_HH
#define ISW_DIST_ISWITCH_SYNC_HH

#include <deque>

#include "dist/strategy.hh"

namespace isw::dist {

/** Sync iSwitch job (iSW rows of Tables 3/4). */
class SyncIswitchJob : public JobBase
{
  public:
    /** On its own world, or on @p world's shared fabric. */
    explicit SyncIswitchJob(const JobConfig &cfg,
                            const SharedWorld *world = nullptr);

  protected:
    void start() override;

  private:
    /** First striped Seg index of @p w's current round. */
    std::uint64_t segBase(const WorkerCtx &w) const;

    /** Sliding sender window (segments() = whole round at once). */
    std::uint64_t windowSegments() const;

    void beginRound(WorkerCtx &w);
    void sendGradient(WorkerCtx &w);
    /** Send one segment (window, retransmit and Nack retry paths). */
    void sendOneSegment(WorkerCtx &w, std::uint64_t seg);
    /** Release window segments up to firstMissing() + W. */
    void advanceWindow(WorkerCtx &w);
    void resendSegment(WorkerCtx &w, std::uint64_t seg_prime);
    void onNack(WorkerCtx &w, std::uint64_t value);
    /** Send Help(seg) for every missing result segment; returns how
     *  many were requested (the RetxTimer resend hook). */
    std::size_t requestHelp(WorkerCtx &w);
    void onPacket(WorkerCtx &w, const net::PacketPtr &pkt);
    void onResultComplete(WorkerCtx &w);

    /** Forced per-segment exponents for @p w's sends ({} unless int32). */
    std::span<const std::int8_t> qexpSpan(const WorkerCtx &w) const;
    /** Derive next round's exponents from the decoded aggregate. */
    void speculateNextExponents(WorkerCtx &w);

    WireFormat fmt_;
    /**
     * Per-worker per-segment shared exponents for the int32 datapath
     * (DESIGN.md §14). Every worker must encode a segment at the same
     * exponent so the switch adds equal-scale integers; round r+1's
     * exponents are speculated from round r's broadcast aggregate — a
     * pure function of data all workers share — and round 0 uses the
     * static default. Empty unless cfg_.precision == kInt32.
     */
    std::vector<std::vector<std::int8_t>> seg_qexp_;
    /** Per-worker Help timers (deque: RetxTimer is address-pinned). */
    std::deque<RetxTimer> help_;
    /** Per-worker next unsent segment offset. */
    std::vector<std::uint64_t> next_unsent_;
    /** Per-worker consecutive-Nack streak (retry backoff escalation). */
    std::vector<std::uint32_t> nack_streak_;
};

} // namespace isw::dist

#endif // ISW_DIST_ISWITCH_SYNC_HH
