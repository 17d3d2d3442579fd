/**
 * @file
 * Discrete-event kernel: a time-ordered queue of callbacks.
 *
 * Events scheduled at the same timestamp fire in scheduling order
 * (FIFO), which makes simulations fully deterministic.
 *
 * Hot-path layout (DESIGN.md §9):
 *  - Callbacks live in a small-buffer `InlineFn` (no heap allocation
 *    for the capture sizes the simulator uses) inside a stable slot
 *    table. Every scheduling call, here and in Simulation/ShardedEngine,
 *    takes the callback by rvalue reference, so each is moved exactly
 *    twice (in at schedule, out at fire) no matter how much the
 *    ordering structures churn.
 *  - Time order lives in 16-byte POD keys split between two
 *    structures: a monotone *tail* FIFO that absorbs the dominant
 *    nondecreasing-time scheduling pattern (link serialization,
 *    fixed-latency hops, scheduleAfter chains) in O(1), and an inline
 *    4-ary array heap for out-of-order arrivals — fewer levels and
 *    far cheaper sifts than the binary std::priority_queue of
 *    std::function events it replaces. The tail's consumed prefix is
 *    reclaimed in amortized O(1), so its storage stays proportional to
 *    its live entries even when it never drains.
 *  - A tie-break rank can be reserved now and its event queued later
 *    (reserveSeq / scheduleReserved): the event then runs exactly
 *    where an eager schedule at reservation time would have run it.
 *  - Cancellation is generation-tagged: an event handle encodes its
 *    unique (seq, slot) key; cancel() is an O(1) key mismatch — no
 *    hash-set insert, no tombstone growth — and stale handles (fired
 *    or cancelled) are recognised exactly instead of leaking.
 */

#ifndef ISW_SIM_EVENT_QUEUE_HH
#define ISW_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/time.hh"

namespace isw::sim {

/**
 * Opaque handle identifying a scheduled event.
 *
 * Encoding: the event's unique packed key (seq << 24 | slot) + 1. A
 * handle is live exactly while the slot table still carries that key;
 * firing or cancelling clears it, so stale handles can never alias a
 * later event (sequence numbers are never reused).
 */
using EventId = std::uint64_t;

/** Sentinel EventId returned by no-op schedules. */
constexpr EventId kInvalidEventId = 0;

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns the simulated clock: time only advances when an event
 * is popped. Scheduling into the past is a programming error and
 * throws.
 */
class EventQueue
{
  public:
    using Callback = InlineFn<48>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    TimeNs now() const { return now_; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return pending_; }

    /** True when no runnable events remain. */
    bool empty() const { return pending_ == 0; }

    /** Largest pending() seen over this queue's lifetime. */
    std::size_t peakPending() const { return peak_pending_; }

    /** Ordering entries the monotone tail holds storage for (a memory
     *  diagnostic: stays within a small multiple of its live ones). */
    std::size_t tailCapacity() const { return tail_.capacity(); }

    /** Events executed over this queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Sentinel returned by nextTime() when the queue is drained. */
    static constexpr TimeNs kNoEvent = ~TimeNs{0};

    /**
     * Timestamp of the earliest pending event, or kNoEvent when the
     * queue is drained. Non-const because stale (cancelled) fronts are
     * pruned on the way.
     */
    TimeNs nextTime();

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute simulated time; must be >= now().
     * @param cb Callback invoked when the event fires.
     * @return Handle usable with cancel().
     */
    EventId
    schedule(TimeNs when, Callback &&cb)
    {
        check(when, cb);
        return insert(when, next_seq_++, std::move(cb));
    }

    /**
     * Reserve the tie-break rank the next schedule() would take, for a
     * later scheduleReserved(). Ranks are never reused, reserved or not.
     */
    std::uint64_t reserveSeq() { return next_seq_++; }

    /**
     * Schedule @p cb at @p when with the rank @p seq from reserveSeq():
     * among events at equal times it runs where a schedule() made at
     * reservation time would have run it. The caller must queue a
     * reserved event before the queue can pop anything that follows it
     * in (time, rank) order — e.g. when the event ahead of it fires.
     */
    EventId
    scheduleReserved(TimeNs when, std::uint64_t seq, Callback &&cb)
    {
        check(when, cb);
        if (seq == 0 || seq >= next_seq_)
            throw std::logic_error("EventQueue: rank was never reserved");
        return insert(when, seq, std::move(cb));
    }

    /** Schedule @p cb to run @p delay after the current time. */
    EventId scheduleAfter(TimeNs delay, Callback &&cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * Cancelling an already-fired, already-cancelled, or unknown id is
     * a harmless no-op that returns false.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /**
     * Pop and run the earliest event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until simulated time exceeds @p deadline or the queue
     * drains. Events scheduled exactly at @p deadline do run, and a
     * queue that drains early parks the clock at @p deadline.
     * @return number of events executed.
     */
    std::size_t runUntil(TimeNs deadline);

    /**
     * Run until the queue drains or @p max_events events have run.
     * @return number of events executed.
     */
    std::size_t runAll(std::size_t max_events = SIZE_MAX);

    /**
     * Run events strictly before @p end_exclusive, at most
     * @p max_events of them. Unlike runUntil(), the clock never
     * force-advances to the window edge: now() is left at the last
     * executed event, so a later window (or an event merged in from
     * another domain at >= end_exclusive) observes exactly the
     * serial-queue clock semantics. This is the one run loop: the
     * other run methods and the domain-sharded engine (sim/shard.hh)
     * are wrappers over it.
     * @return number of events executed.
     */
    std::size_t runWindow(TimeNs end_exclusive,
                          std::size_t max_events = SIZE_MAX);

  private:
    /** Consumed tail prefix worth reclaiming (see insert()). */
    static constexpr std::size_t kTailReclaimMin = 1024;

    /** Slot index bits inside a packed key (max 16M pending events). */
    static constexpr std::uint64_t kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

    /**
     * Trivially-copyable 16-byte ordering key; the callback stays in
     * its slot. `key` packs (seq << 24 | slot): seq is unique and
     * monotone, so comparing keys tie-breaks equal timestamps FIFO.
     */
    struct Entry
    {
        TimeNs when;
        std::uint64_t key;
    };

    struct SlotRec
    {
        std::uint64_t live_key = 0; ///< key of the pending event, or 0
        Callback cb;
    };

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    /** True while the heap entry's handle is still live. */
    bool
    live(const Entry &e) const
    {
        return slots_[e.key & kSlotMask].live_key == e.key;
    }

    /** Retire the slot of @p e: invalidate its handle, allow reuse. */
    void
    retireSlot(std::uint64_t key)
    {
        SlotRec &rec = slots_[key & kSlotMask];
        rec.live_key = 0;
        rec.cb = nullptr;
        free_slots_.push_back(static_cast<std::uint32_t>(key & kSlotMask));
    }

    void
    check(TimeNs when, const Callback &cb) const
    {
        if (when < now_)
            throw std::logic_error("EventQueue: scheduling into the past");
        if (!cb)
            throw std::invalid_argument("EventQueue: null callback");
    }

    /** Queue @p cb at (@p when, @p seq); the arguments are checked. */
    EventId insert(TimeNs when, std::uint64_t seq, Callback &&cb);

    void pushHeap(const Entry &e);
    /** Remove the heap root (which must exist). */
    Entry popHeap();
    /**
     * Earliest live entry across heap and tail, discarding stale
     * entries. Returns nullptr when drained; otherwise *from_tail
     * says which structure holds it.
     */
    const Entry *peekLive(bool *from_tail);
    /** Extract a live entry found by peekLive(). */
    Entry extract(bool from_tail);

    TimeNs now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t pending_ = 0;
    std::size_t peak_pending_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Entry> heap_; ///< 4-ary min-heap on (when, key)
    std::vector<Entry> tail_; ///< sorted run of monotone arrivals
    std::size_t tail_head_ = 0;
    std::vector<SlotRec> slots_;
    std::vector<std::uint32_t> free_slots_;
};

} // namespace isw::sim

#endif // ISW_SIM_EVENT_QUEUE_HH
