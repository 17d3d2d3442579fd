/**
 * @file
 * Domain-sharded conservative parallel event engine (DESIGN.md §13/§15).
 *
 * A large Simulation is split into D *domains*, each owning a private
 * serial EventQueue (so intra-domain ordering, FIFO tie-breaking, and
 * the generation-tagged cancellation of sim/event_queue.hh are all
 * preserved verbatim). Domains advance together through conservative
 * time windows:
 *
 *   T = min over domains of nextTime()
 *   window = [T, T + lookahead)
 *
 * where `lookahead` is the minimum propagation delay of any
 * domain-boundary link. Because a cross-domain interaction must cross
 * such a link — delivery time = serialization-done + propagation >=
 * now + lookahead — no event executed inside the window can schedule
 * work in *another* domain earlier than the window's end. Each domain
 * can therefore run its slice of the window independently of the
 * others, with no event-level synchronization at all.
 *
 * Each window is dispatched by its width: the number of domains with
 * an event before its horizon. A narrow window runs on the owning
 * thread, one active slice after another in domain-id order; only a
 * window with at least kPoolDomainsPerThread active domains per thread
 * wakes the worker pool, which runs the slices in parallel. The two
 * paths give the same result, because no slice sees another domain's
 * events inside a window.
 *
 * Cross-domain handoffs produced during a window are *staged* in the
 * source domain, in one list per destination (thread-private, zero
 * contention). After the window's barrier the caller's thread reads
 * every domain's staging lists and merges them into the destination
 * queues in (time, source-domain, source-sequence) order, which makes
 * the merged schedule — and hence the whole run — deterministic and
 * independent of thread count and OS scheduling.
 *
 * Every Simulation runs on this engine. An un-sharded one owns a
 * single domain with an unbounded lookahead: every domain id maps to
 * that one queue, and each run()/runUntil() call is one window on the
 * caller's thread — the plain serial queue. Windows run on the owning
 * thread honor an event budget exactly (runAll's max_events); a window
 * run on the pool always runs to its end.
 */

#ifndef ISW_SIM_SHARD_HH
#define ISW_SIM_SHARD_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace isw::sim {

/** Index of one shard domain. */
using DomainId = std::uint32_t;

/** Reserved "no domain" id; a plan's domain count stays below it. */
constexpr DomainId kNoDomain = ~DomainId{0};

/** ShardPlan::lookahead of a one-domain engine: windows never end. */
constexpr TimeNs kUnboundedLookahead = EventQueue::kNoEvent;

/** How to shard a Simulation (see Simulation::shard()). */
struct ShardPlan
{
    /** Number of domains (1 = the serial queue). */
    std::size_t domains = 1;
    /**
     * Conservative window width: the minimum propagation delay of any
     * link whose endpoints live in different domains. Must be > 0;
     * kUnboundedLookahead (one domain only) makes every run call a
     * single window.
     */
    TimeNs lookahead = 1;
    /**
     * Worker threads (including the calling thread). 0 picks
     * hardware_concurrency, capped at the domain count. Only windows
     * with ShardedEngine::kPoolDomainsPerThread active domains per
     * thread use the others.
     */
    unsigned threads = 0;
};

/**
 * The sharded engine: D serial EventQueues + staged handoffs + a
 * worker pool.
 *
 * Threading contract: schedule()/cancelHere()/cancelIn() may be called
 * either from *inside* a domain (a callback executing during a window —
 * the common runtime case) or from the owning thread while no window is
 * running (setup). runAll()/runUntil() must be called from the owning
 * thread only.
 */
class ShardedEngine
{
  public:
    /**
     * Active domains per thread at which a window wakes the pool; a
     * narrower window runs on the owning thread. Waking the pool costs
     * a futex wake and a barrier per window, which a window of a few
     * events does not repay: on perfbench's fat64-sharded workload (9
     * domains, about 5 events per window, 4 threads, shared 4-core
     * host) running every window inline cut wall_s from 1.39 to
     * 0.52 s. At 4 per thread (16 at 4 threads) none of its windows
     * reaches the pool, while a 256-worker fat-tree sync-iSW run (33
     * domains) still runs 71% of its windows there and is no slower.
     */
    static constexpr std::size_t kPoolDomainsPerThread = 4;

    explicit ShardedEngine(const ShardPlan &plan);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    std::size_t domains() const { return domains_.size(); }
    TimeNs lookahead() const { return lookahead_; }
    unsigned threads() const { return nthreads_; }

    /**
     * Schedule @p cb at absolute @p when in domain @p d (on a one-domain
     * engine every @p d is the single queue).
     *
     * From inside domain d itself this is a plain serial schedule.
     * From inside a *different* domain the event is a cross-domain
     * handoff: @p when must honor the lookahead contract (>= the end
     * of the current window) or std::logic_error is thrown, and the
     * returned id is kInvalidEventId (staged handoffs are not
     * cancellable — they belong to no queue yet).
     */
    EventId
    schedule(DomainId d, TimeNs when, EventQueue::Callback &&cb)
    {
        Domain *here = executing();
        if (here != nullptr && (here->id == d || single_))
            return here->q.schedule(when, std::move(cb));
        return scheduleSlow(d, when, std::move(cb));
    }

    /** Schedule at absolute @p when in the executing domain (domain 0
     *  outside windows). */
    EventId
    at(TimeNs when, EventQueue::Callback &&cb)
    {
        if (Domain *here = executing())
            return here->q.schedule(when, std::move(cb));
        return scheduleSlow(0, when, std::move(cb));
    }

    /** Schedule @p delay after now() in the executing domain (domain 0
     *  outside windows). */
    EventId
    after(TimeNs delay, EventQueue::Callback &&cb)
    {
        if (Domain *here = executing())
            return here->q.schedule(here->q.now() + delay, std::move(cb));
        return scheduleSlow(0, committed_ + delay, std::move(cb));
    }

    /**
     * Reserve a tie-break rank in domain @p d's queue for a later
     * scheduleReserved() there (EventQueue::reserveSeq). Valid where
     * schedule() into @p d is a plain queue insert: from inside @p d
     * (any domain of a one-domain engine) or from the owning thread
     * between windows. From inside another domain it returns 0 and
     * reserves nothing: ranks are queue-local, and a cross-domain
     * handoff takes its rank at the barrier merge instead.
     */
    std::uint64_t
    reserveSeq(DomainId d)
    {
        EventQueue *q = localQueue(d);
        return q != nullptr ? q->reserveSeq() : 0;
    }

    /**
     * Queue @p cb in domain @p d at @p when with a rank reserved there
     * by reserveSeq(). Same calling contexts as reserveSeq(); from
     * inside another domain it throws std::logic_error.
     */
    EventId
    scheduleReserved(DomainId d, TimeNs when, std::uint64_t seq,
                     EventQueue::Callback &&cb)
    {
        EventQueue *q = localQueue(d);
        if (q == nullptr)
            throw std::logic_error(
                "ShardedEngine: reserved rank used outside its domain");
        return q->scheduleReserved(when, seq, std::move(cb));
    }

    /**
     * Domain to charge work initiated on this thread to: the executing
     * domain during a window, domain 0 otherwise (setup).
     */
    DomainId
    hereOr0() const
    {
        const Domain *here = executing();
        return here != nullptr ? here->id : 0;
    }

    /**
     * Cancel an event scheduled in the current thread's domain.
     * Outside any domain context, ids from domain 0 are assumed (the
     * setup-thread convention). EventIds are queue-local: cancelling
     * an id minted by another domain silently cancels (or misses) an
     * unrelated event in *this* domain's queue. Callers that know the
     * owning domain must use cancelIn(), which checks.
     */
    bool cancelHere(EventId id);

    /**
     * Cancel an event known to live in domain @p d's queue. Safe from
     * the owning thread between windows (no queue is running) and from
     * inside domain d itself; calling from inside a *different* domain
     * mid-window throws std::logic_error — that would be a data race
     * on d's queue, and EventIds are only unique per queue anyway.
     */
    bool cancelIn(DomainId d, EventId id);

    /** Clock visible to the current thread (domain clock inside a
     *  window, last committed global time outside). */
    TimeNs
    now() const
    {
        const Domain *here = executing();
        return here != nullptr ? here->q.now() : committed_;
    }

    /** Run windows until every queue drains or @p max_events ran
     *  (exactly @p max_events unless a window run on the pool
     *  overshoots). */
    std::size_t runAll(std::size_t max_events = SIZE_MAX);

    /** Run windows until simulated @p deadline (inclusive, like
     *  EventQueue::runUntil) or the queues drain. */
    std::size_t runUntil(TimeNs deadline);

    /** No event left in any queue or staging list (owning thread,
     *  between runs). */
    bool empty() const;
    /** Queued events plus staged handoffs not yet merged (owning
     *  thread, between runs). */
    std::size_t pending() const;
    std::uint64_t executed() const;
    /** Largest pending count any one domain's queue reached. */
    std::size_t peakPending() const;

    /**
     * Per-domain enter/leave hooks, invoked on the worker thread
     * immediately before/after a domain executes its window slice.
     * Used to swap in per-domain resources (e.g. the thread-local
     * PacketPool override). The leave hook also runs when a callback
     * throws, from a destructor, so it must not throw. Set before the
     * first run.
     */
    using DomainHook = std::function<void(DomainId)>;
    void setDomainHooks(DomainHook enter, DomainHook leave)
    {
        enter_ = std::move(enter);
        leave_ = std::move(leave);
    }

    /**
     * Window-barrier hook, invoked on the owning thread after every
     * window completes (all domains quiescent, before the next merge).
     * This is the engine's only globally-ordered point, so it is where
     * cross-domain snapshots are published: async strategies copy live
     * version counters into their read-side snapshots here, giving
     * every domain in the next window the same deterministic view
     * regardless of thread count. Set before the first run.
     */
    void setBarrierHook(std::function<void()> fn)
    {
        barrier_ = std::move(fn);
    }

    /** Conservative windows executed so far. */
    std::uint64_t windows() const { return windows_; }
    /** Windows run on the owning thread (narrower than the pool
     *  threshold, or any window without a pool). */
    std::uint64_t windowsInline() const { return windows_inline_; }
    /** Domain window-slices skipped because the domain had no event
     *  before the window horizon (idle-domain skip). */
    std::uint64_t domainsSkipped() const;
    /** Cross-domain handoffs so far. */
    std::uint64_t crossEvents() const;
    /** Non-empty staging lists merged at window barriers: one per
     *  source domain, destination, and window that sent handoffs. */
    std::uint64_t crossBatches() const;

  private:
    /** One cross-domain handoff, stamped for deterministic merging. */
    struct CrossEvent
    {
        TimeNs when;
        DomainId src;
        DomainId dst;
        std::uint64_t seq; ///< per-source send counter
        EventQueue::Callback cb;
    };

    /**
     * One domain. alignas keeps hot per-domain state (the queue, the
     * send counter, the staging lists) on private cache lines across
     * worker threads. Everything here is only touched by the thread
     * executing this domain's window slice (one thread per window,
     * with a barrier between windows) or by the owning thread between
     * windows — never concurrently.
     */
    struct alignas(64) Domain
    {
        EventQueue q;
        DomainId id = 0;
        std::uint64_t send_seq = 0; ///< stamps outgoing cross events
        std::uint64_t batches_out = 0; ///< non-empty lists merged
        std::uint64_t skipped = 0;     ///< idle window-slices skipped
        /** Outgoing handoffs staged since the last barrier, one list
         *  per destination (linear scan: fan-out per window is small).
         *  The drain empties the lists but keeps their capacity. */
        std::vector<std::pair<DomainId, std::vector<CrossEvent>>> staged;
    };

    /** The domain whose window slice this thread is executing, or
     *  nullptr outside this engine's windows. */
    Domain *
    executing() const
    {
        return tls_engine_ == this ? tls_dom_ : nullptr;
    }

    /** The queue a schedule() into @p d from this thread inserts into
     *  directly; nullptr from inside another domain (a handoff). */
    EventQueue *
    localQueue(DomainId d)
    {
        if (Domain *here = executing())
            return here->id == d || single_ ? &here->q : nullptr;
        if (single_)
            return &domains_.front().q;
        if (d >= domains_.size())
            throw std::out_of_range("ShardedEngine: no such domain");
        return &domains_[d].q;
    }

    /** schedule() for everything but an in-domain call: setup-context
     *  schedules, cross-domain handoffs, and domain-id checks. */
    EventId scheduleSlow(DomainId d, TimeNs when,
                         EventQueue::Callback &&cb);

    std::size_t runLoop(TimeNs deadline, std::size_t max_events);
    /** Whether the window ending at @p end_exclusive is wide enough to
     *  run on the pool (see kPoolDomainsPerThread). */
    bool wakesPool(TimeNs end_exclusive);
    /** Run one window on every thread and wait for all of them; then
     *  rethrow the first exception any slice threw. */
    void runWindowPool(TimeNs end_exclusive);
    /** Run the slices of domains @p first, first + @p stride, ... that
     *  have an event before the horizon, counting the others as
     *  skipped; stop after @p max_events. Returns events executed. */
    std::size_t runDomains(std::size_t first, std::size_t stride,
                           TimeNs end_exclusive, std::size_t max_events);
    /** Run one domain's slice of the current window (tls context,
     *  enter/leave hooks); returns events executed. */
    std::size_t runDomainSlice(DomainId d, TimeNs end_exclusive,
                               std::size_t max_events);
    void workerMain(unsigned worker);
    /** Merge every domain's staged handoffs into their destination
     *  queues (owning thread, after the barrier; deterministic). */
    void drainStaged();

    std::deque<Domain> domains_; ///< deque: stable addrs, no moves
    bool single_;                ///< one domain: every id maps to it
    TimeNs lookahead_;
    TimeNs committed_ = 0; ///< global clock between/after runs

    DomainHook enter_;
    DomainHook leave_;
    std::function<void()> barrier_;

    // Worker pool: pool_[i] drives domains {d : d % nthreads_ == i+1};
    // the calling thread doubles as worker 0. Wakeups use C++20
    // atomic wait (futex): gen_ bumps to start a window, done_ counts
    // finished workers. errors_[w] holds what worker w's slices threw
    // in the current pool window; the done_ handshake orders it before
    // the owning thread reads it.
    std::vector<std::thread> pool_;
    unsigned nthreads_ = 1;
    std::vector<std::exception_ptr> errors_;
    std::atomic<std::uint64_t> gen_{0};
    std::atomic<unsigned> done_{0};
    std::atomic<TimeNs> window_end_{0};
    std::atomic<bool> quit_{false};

    std::uint64_t windows_ = 0;
    std::uint64_t windows_inline_ = 0;
    std::vector<CrossEvent> merge_buf_; ///< drain scratch (reused)

    // The executing window slice, set and restored by runDomainSlice
    // (inline so the hot path reads them without a TLS wrapper call).
    static inline thread_local ShardedEngine *tls_engine_ = nullptr;
    static inline thread_local Domain *tls_dom_ = nullptr;
};

} // namespace isw::sim

#endif // ISW_SIM_SHARD_HH
