/**
 * @file
 * Per-segment accumulation state of the in-switch accelerator
 * (the Buffers + Seg Counters of paper Figure 7).
 */

#ifndef ISW_CORE_SEG_BUFFER_HH
#define ISW_CORE_SEG_BUFFER_HH

#include <cstdint>
#include <vector>

#include "core/protocol.hh"
#include "net/packet.hh"

namespace isw::core {

/**
 * The sources folded into one segment (contributor dedupe): IPv4 bits
 * in an open-addressed table (linear probing) that keeps its storage
 * across clear(), so a recycled slot records the next segment's
 * contributors without allocating. Lookups stay O(1) at hundreds of
 * contributors.
 */
class ContributorSet
{
  public:
    /** Add @p src; false if it was already present. */
    bool insert(std::uint32_t src);
    bool contains(std::uint32_t src) const;
    std::size_t size() const { return size_; }
    /** Forget every source, keeping the table. */
    void clear();

    /** Call @p fn with each source, in table order. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const std::uint64_t e : table_) {
            if (e != 0)
                fn(static_cast<std::uint32_t>(e - 1));
        }
    }

  private:
    /** Bucket holding @p src, or the empty bucket that ends its probe.
     *  Requires a non-empty table. */
    std::size_t probe(std::uint32_t src) const;
    void grow();

    /** Power-of-two buckets holding source + 1 (0 = empty). */
    std::vector<std::uint64_t> table_;
    std::size_t size_ = 0;
};

/** Accumulated contributions toward one segment of the gradient. */
struct SegState
{
    /**
     * Element-wise running sum in the wire's word format: raw float32
     * adds for kFp32, packed half-pair adds for kFp16, saturating
     * int32 adds for kInt32 (bit-cast into the float storage) — the
     * int path is exact and order-independent, which is what a real
     * integer-ALU switch pipeline computes (DESIGN.md §14).
     */
    std::vector<float> acc;
    std::uint32_t count = 0;     ///< contributions received so far
    std::uint32_t wire_floats = 0; ///< wire slots (max over contributions)
    /** Word format + shared exponent, latched from the first
     *  contribution; later mismatched exponents are shift-rescaled. */
    net::Precision prec = net::Precision::kFp32;
    std::int8_t qexp = 0;
    /** Sources folded in (used only under contributor dedupe). A
     *  harvested state leaves it behind with the slot, empty. */
    ContributorSet contributors;
};

/** What the slot pool did with one offered contribution. */
enum class SlotOutcome : std::uint8_t {
    kAccepted,   ///< folded in, segment still below threshold
    kCompleted,  ///< folded in and the segment reached H
    kDuplicate,  ///< same source already contributed (dedupe)
    kStale,      ///< stale packet (old version / already-completed seg)
    kBusy,       ///< slot still aggregating an older segment (Nack)
    kUnadmitted, ///< job has no slot partition on this switch
};

/** Per-job slot-pool counters (fairness / contention observability). */
struct SlotPoolStats
{
    std::uint64_t accepted = 0;    ///< contributions folded in
    std::uint64_t completed = 0;   ///< segments that reached H
    std::uint64_t duplicates = 0;  ///< dedupe rejections
    std::uint64_t stale_drops = 0; ///< stale-version packets dropped
    std::uint64_t busy_drops = 0;  ///< busy-slot rejections (Nacked)
    std::uint64_t unadmitted = 0;  ///< packets from unadmitted jobs
    std::uint64_t reclaimed = 0;   ///< partials dropped on member Leave
    std::uint64_t overflow_clamps = 0; ///< int32 lanes saturated in adds
    std::uint64_t exp_rescales = 0; ///< exponent-mismatch contributions
};

/**
 * Pool of segment buffers keyed by Seg word (packSegWord(seg, job)).
 *
 * Two operating modes (DESIGN.md §11):
 *
 *  - Unbounded (capacity 0, the default): the paper's dedicated-switch
 *    model. A flat slab of recycled SegState slots plus an
 *    open-addressing key → slot index (linear probing, fibonacci
 *    hashing, backward-shift deletion): the steady state allocates
 *    nothing and the accumulate loop runs over contiguous restrict-
 *    qualified floats the compiler can vectorize (DESIGN.md §9).
 *
 *  - Bounded (capacity N > 0): a SwitchML-style fixed pool of N
 *    aggregator slots, optionally partitioned per job. A segment maps
 *    direct-mapped to slot `base + seg % quota`; tensors larger than
 *    the pool recirculate through slot reuse, paced by the sender's
 *    streaming window. Conflicts resolve deterministically:
 *      - same (job, seg, ver): accumulate (dedupe as configured);
 *      - same (job, seg), other ver, or seg below the slot's completed
 *        floor: stale — dropped and counted;
 *      - an older in-flight segment still holds the slot: busy — the
 *        contribution is dropped, counted, and (via the accelerator)
 *        Nacked so the sender backs off and retries.
 *
 * Element-wise adds vectorize bit-identically, so results are
 * unchanged from the scalar unordered_map version.
 *
 * A segment "completes" when its counter reaches the aggregation
 * threshold H, at which point the caller harvests the sum and the
 * buffer is cleared (the paper's write-back-zeros step).
 */
class SegBufferPool
{
  public:
    /**
     * Bound the pool to @p slots aggregator slots (0 = unbounded).
     * Drops all state; call before traffic flows.
     */
    void setCapacity(std::size_t slots);

    /** Configured slot count (0 = unbounded legacy mode). */
    std::size_t capacity() const { return capacity_; }
    bool bounded() const { return capacity_ > 0; }

    /**
     * Reserve slots [base, base + quota) for @p job. Once any
     * partition exists the pool runs admission control: traffic from a
     * job without a partition is dropped and counted. Bounded mode
     * only.
     */
    void setJobPartition(std::uint8_t job, std::uint32_t base,
                         std::uint32_t quota);

    /** Has admission control been turned on via setJobPartition? */
    bool partitioned() const { return partitioned_; }

    /** Slot quota for @p job (capacity when unpartitioned). */
    std::uint32_t quotaFor(std::uint8_t job) const;

    /**
     * Fold one contribution into its segment buffer / aggregator slot.
     *
     * @param src Contributor identity (IPv4 bits). When @p dedupe is
     *        true, a second contribution from the same source to the
     *        same in-progress segment is ignored — this makes the
     *        sync-mode loss-recovery retransmissions idempotent.
     *        Dedupe also marks the job's traffic as *ordered*
     *        (monotonically increasing seg indices), which is what
     *        arms the bounded mode's stale floor.
     */
    SlotOutcome offer(const net::ChunkPayload &chunk, std::uint32_t h,
                      std::uint32_t src = 0, bool dedupe = false);

    /** Number of segments currently holding partial sums. */
    std::size_t activeSegments() const { return active_; }

    /** True if Seg word @p key holds any contributions. */
    bool has(std::uint64_t key) const;

    /** Contribution count for Seg word @p key (0 if absent). */
    std::uint32_t count(std::uint64_t key) const;

    /**
     * Remove and return the sum of Seg word @p key (complete or
     * partial): the accumulator and counters move out, while the slot
     * keeps its contributor table for the next segment (the returned
     * state's set is empty). @p completed distinguishes a finished
     * segment (the slot's stale floor advances past it) from a
     * recovery drop whose segment will be retransmitted and must stay
     * admissible. Throws std::out_of_range if the segment is absent.
     */
    SegState harvest(std::uint64_t key, bool completed = true);

    /**
     * Read-only view of Seg word @p key's partial state, or nullptr.
     * The HA primary snapshots replication frames from this; the
     * pointer is invalidated by any mutating call. Unbounded mode only
     * (bounded pools always return nullptr — HA requires unbounded).
     */
    const SegState *peek(std::uint64_t key) const;

    /**
     * The slot of Seg word @p key (inserted empty if absent), for an
     * HA backup to overwrite wholesale with a replicated snapshot
     * (replication frames carry the full accumulator and contributor
     * set, so replace semantics make re-applied or reordered frames
     * idempotent). Writing in place keeps the slot's storage. The
     * reference is invalidated by any other mutating call. Unbounded
     * mode only; throws std::logic_error on a bounded pool — HA
     * backups run the paper's dedicated-switch model.
     */
    SegState &replicaSlot(std::uint64_t key);

    /** Drop all partial state (control-plane Reset). */
    void clear();

    /**
     * Drop every in-flight partial containing a contribution from
     * @p src (membership Leave: a crashed worker's contributions would
     * otherwise pin their slots until round end, inflating the peak-
     * occupancy counter). Only meaningful for deduped (sync) traffic —
     * unordered jobs record no contributor identity. Returns the
     * number of slots reclaimed.
     */
    std::size_t reclaimFrom(std::uint32_t src);

    /** Peak number of simultaneously active segments (BRAM pressure). */
    std::size_t peakActiveSegments() const { return peak_; }

    /** Per-job counters (job ids not seen yet read as zeros). */
    SlotPoolStats jobStats(std::uint8_t job) const;

    /** Sum of stale + busy + unadmitted + reclaimed over all jobs. */
    std::uint64_t contentionEvents() const;

    /** Aggregate counters over all jobs. */
    SlotPoolStats totals() const;

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct Bucket
    {
        std::uint64_t seg = 0;
        std::uint32_t slot_plus1 = 0; ///< 0 = empty
    };

    /** One aggregator slot of the bounded pool. */
    struct Slot
    {
        bool used = false;
        bool ordered = false; ///< claimed by deduped (ordered) traffic
        std::uint8_t job = 0;
        std::uint8_t ver = 0;
        std::uint64_t seg = 0;   ///< occupant's segment index
        std::uint64_t floor = 0; ///< smallest admissible seg (ordered)
        SegState st;
    };

    struct Partition
    {
        std::uint32_t base = 0;
        std::uint32_t quota = 0;
        bool set = false;
    };

    static std::size_t
    hashSeg(std::uint64_t seg)
    {
        return static_cast<std::size_t>(
            (seg + 1) * 0x9E3779B97F4A7C15ULL >> 32);
    }

    /** Fold @p chunk into @p st per its wire precision;
     *  Accepted/Completed/Duplicate. Member (not static) because the
     *  int32 path books saturation/rescale counters per job. */
    SlotOutcome foldInto(SegState &st, const net::ChunkPayload &chunk,
                         std::uint32_t h, std::uint32_t src, bool dedupe);

    SlotOutcome offerUnbounded(const net::ChunkPayload &chunk,
                               std::uint32_t h, std::uint32_t src,
                               bool dedupe);
    SlotOutcome offerBounded(const net::ChunkPayload &chunk, std::uint32_t h,
                             std::uint32_t src, bool dedupe);

    /** Bounded-mode slot index for (job, seg), or kNoSlot. */
    std::uint32_t boundedSlot(std::uint8_t job, std::uint64_t seg) const;

    SlotPoolStats &statsFor(std::uint8_t job);

    /** Slab slot for @p seg, or kNoSlot. */
    std::uint32_t findSlot(std::uint64_t seg) const;
    /** Slot for @p seg, inserting a recycled slab entry if absent. */
    std::uint32_t findOrInsert(std::uint64_t seg);
    /** Unlink @p seg from the index and park its slot for reuse. */
    void eraseIndex(std::uint64_t seg);
    void grow();

    std::vector<Bucket> buckets_; ///< power-of-two open-addressed index
    std::size_t mask_ = 0;
    std::vector<SegState> slab_;  ///< slot storage, recycled via free_
    std::vector<std::uint32_t> free_;
    std::size_t active_ = 0;
    std::size_t peak_ = 0;

    std::size_t capacity_ = 0;  ///< 0 = unbounded
    std::vector<Slot> slots_;   ///< bounded-mode aggregator slots
    std::vector<Partition> partitions_;
    bool partitioned_ = false;
    std::vector<SlotPoolStats> stats_; ///< indexed by job id
};

} // namespace isw::core

#endif // ISW_CORE_SEG_BUFFER_HH
