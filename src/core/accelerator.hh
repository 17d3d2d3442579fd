/**
 * @file
 * In-switch aggregation accelerator (paper Figure 7).
 *
 * Functional model: per-segment accumulate-and-count with threshold H,
 * emitting the summed segment the moment the H-th contribution lands
 * (on-the-fly aggregation, Figure 8b).
 *
 * Timing model: the NetFPGA datapath moves 256-bit bursts at 200 MHz
 * through eight parallel fp32 adders, so a packet of B wire bytes
 * occupies the pipeline for ceil(B/32) cycles of 5 ns. The pipeline is
 * modeled as a busy-until serialization point plus a small fixed
 * latency, matching the "bump-in-the-wire" integration of Figure 6.
 *
 * Slot pool (DESIGN.md §11): with num_slots > 0 the segment buffers are
 * a fixed SwitchML-style aggregator pool shared by one or more jobs;
 * contributions that hit a busy slot are Nacked back to the sender and
 * stale duplicates are dropped instead of corrupting a newer round.
 */

#ifndef ISW_CORE_ACCELERATOR_HH
#define ISW_CORE_ACCELERATOR_HH

#include <array>
#include <functional>
#include <vector>

#include "core/seg_buffer.hh"
#include "net/packet.hh"
#include "sim/simulation.hh"

namespace isw::core {

/** Accelerator hardware parameters (defaults = paper's NetFPGA). */
struct AcceleratorConfig
{
    double clock_hz = 200e6;         ///< datapath clock
    std::size_t burst_bytes = 32;    ///< AXI4-Stream width: 256 bits
    sim::TimeNs fixed_latency = 100; ///< parse/decode pipeline depth
    /**
     * Aggregator slots carved out of switch SRAM (0 = unbounded, the
     * paper's dedicated-switch model). Each slot buffers one segment:
     * kFloatsPerSeg floats plus counters (DESIGN.md §11).
     */
    std::size_t num_slots = 0;
};

/**
 * The aggregation engine bolted onto a programmable switch.
 *
 * The owner (ProgrammableSwitch) feeds tagged data packets in via
 * ingest(); when a segment completes (or is force-broadcast) the
 * engine calls the emit callback with the harvested sum. Emission
 * happens in simulated time after the pipeline delay.
 *
 * Segment identity is the packed Seg word packSegWord(seg, job), so a
 * single engine can serve several jobs without cross-talk; single-job
 * callers (job 0) see plain segment indices, unchanged.
 */
class Accelerator
{
  public:
    /** Called when a segment's aggregate is ready to leave the chip.
     *  @p key is the packed Seg word (bare seg index for job 0). */
    using EmitFn = std::function<void(std::uint64_t key, SegState sum)>;

    /** Called when a contribution bounced off a busy aggregator slot:
     *  the switch turns this into a Nack control packet. */
    using NackFn = std::function<void(std::uint8_t job, std::uint64_t seg,
                                      std::uint32_t src)>;

    /** Called after a contribution is folded into a still-incomplete
     *  segment (HA primary streams the updated partial to its backup;
     *  completions replicate via the result path instead). */
    using AcceptFn = std::function<void(std::uint64_t key)>;

    Accelerator(sim::Simulation &s, AcceleratorConfig cfg = {});

    /** Install the emission callback (owned by the switch). */
    void setEmit(EmitFn fn) { emit_ = std::move(fn); }

    /** Install the busy-slot rejection callback. */
    void setNack(NackFn fn) { nack_ = std::move(fn); }

    /** Install the partial-accepted callback (HA replication). */
    void setAccept(AcceptFn fn) { accept_ = std::move(fn); }

    /**
     * Aggregation threshold H (contributions per segment) of @p job's
     * segments. Every job id has its own value, 1 until set.
     */
    void setThreshold(std::uint32_t h, std::uint8_t job = 0)
    {
        knobs_[job].threshold = h;
    }
    std::uint32_t threshold(std::uint8_t job = 0) const
    {
        return knobs_[job].threshold;
    }

    /**
     * Per-source contribution dedupe for @p job's segments, off until
     * set. Synchronous training turns it on so Help-driven
     * retransmissions are idempotent; asynchronous training leaves it
     * off because contributions from successive worker iterations
     * legitimately share a buffer.
     */
    void setDedupe(bool on, std::uint8_t job = 0) { knobs_[job].dedupe = on; }
    bool dedupe(std::uint8_t job = 0) const { return knobs_[job].dedupe; }

    /**
     * Feed one tagged data packet into the pipeline. Accumulation and
     * possible emission occur after the modeled processing delay.
     * @param src Contributor identity (source IPv4 bits).
     */
    void ingest(const net::ChunkPayload &chunk, std::uint32_t src = 0);

    /**
     * Zero-copy ingest: holds a reference to the shared packet until
     * the accumulate event fires instead of copying the chunk into the
     * event closure. No-op for packets without a ChunkPayload.
     */
    void ingest(const net::PacketPtr &pkt);

    /**
     * Force emission of a (possibly partial) segment, clearing its
     * buffer (control-plane FBcast). No-op if the segment is empty.
     * @p key is the packed Seg word.
     */
    void forceEmit(std::uint64_t key);

    /** Clear all partial aggregation state (control-plane Reset). */
    void reset() { pool_.clear(); }

    /**
     * Remove and return a segment's partial state without emitting
     * (loss recovery: the partial may mix duplicate retransmissions).
     * Does not advance the slot's stale floor — the segment will be
     * retransmitted and must stay admissible.
     */
    SegState harvestPartial(std::uint64_t key)
    {
        return pool_.harvest(key, /*completed=*/false);
    }

    /**
     * Drop in-flight partials contributed to by @p src (membership
     * Leave of a crashed worker). Returns reclaimed slot count.
     */
    std::size_t reclaimFrom(std::uint32_t src)
    {
        return pool_.reclaimFrom(src);
    }

    /** Pipeline occupancy time for a packet of @p wire_bytes. */
    sim::TimeNs procTime(std::size_t wire_bytes) const;

    const SegBufferPool &pool() const { return pool_; }
    SegBufferPool &pool() { return pool_; }

    std::uint64_t packetsIngested() const { return ingested_; }
    std::uint64_t segmentsEmitted() const { return emitted_; }

  private:
    void emitSeg(std::uint64_t key);
    void afterAccumulate(const net::ChunkPayload &chunk, std::uint32_t src);

    sim::Simulation &sim_;
    AcceleratorConfig cfg_;
    SegBufferPool pool_;
    EmitFn emit_;
    NackFn nack_;
    AcceptFn accept_;
    sim::TimeNs busy_until_ = 0;
    /** One job's aggregation knobs. */
    struct JobKnobs
    {
        std::uint32_t threshold = 1;
        bool dedupe = false;
    };
    /** One row per job id, so every fold reads its job's knobs with
     *  one indexed load. */
    std::array<JobKnobs, 256> knobs_{};
    std::uint64_t ingested_ = 0;
    std::uint64_t emitted_ = 0;
};

} // namespace isw::core

#endif // ISW_CORE_ACCELERATOR_HH
