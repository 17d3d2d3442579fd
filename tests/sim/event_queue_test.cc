/** @file Unit tests for the discrete-event kernel. */

#include <functional>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/simulation.hh"

namespace isw::sim {
namespace {

/** A capture that counts its relocations (move constructions). */
struct MoveCounter
{
    explicit MoveCounter(int *moves) : moves(moves) {}
    MoveCounter(MoveCounter &&o) noexcept : moves(o.moves) { ++*moves; }
    MoveCounter(const MoveCounter &) = delete;
    MoveCounter &operator=(const MoveCounter &) = delete;
    MoveCounter &operator=(MoveCounter &&) = delete;
    int *moves;
};

TEST(EventQueue, CallbackIsRelocatedExactlyTwice)
{
    // In at schedule, out at fire: the scheduling calls hand the
    // callback down by reference, whichever entry point takes it.
    int moves = 0;
    int fired = 0;
    const auto make = [&] {
        return EventQueue::Callback(
            [mc = MoveCounter(&moves), &fired] { ++fired; });
    };

    EventQueue q;
    EventQueue::Callback cb = make();
    moves = 0;
    q.schedule(5, std::move(cb));
    q.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(moves, 2);

    Simulation sim;
    EventQueue::Callback after = make();
    moves = 0;
    sim.after(5, std::move(after));
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(moves, 2);
}

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimeEventsRunFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ClockAdvancesToEventTime)
{
    EventQueue q;
    TimeNs seen = 0;
    q.schedule(42, [&] { seen = q.now(); });
    q.runOne();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, SchedulingIntoThePastThrows)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.runOne();
    EXPECT_THROW(q.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, NullCallbackThrows)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventQueue::Callback{}),
                 std::invalid_argument);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIdIsNoop)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(kInvalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, CancelledEventsDontCountAsPending)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            q.scheduleAfter(10, recurse);
    };
    q.schedule(0, recurse);
    q.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue q;
    int count = 0;
    for (TimeNs t = 10; t <= 100; t += 10)
        q.schedule(t, [&] { ++count; });
    const std::size_t ran = q.runUntil(50);
    EXPECT_EQ(ran, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.pending(), 5u);
    // Deadline-inclusive semantics: event exactly at 50 ran.
    q.runAll();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilAdvancesClockOnEmptyQueue)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, RunAllHonorsEventBudget)
{
    EventQueue q;
    int count = 0;
    std::function<void()> forever = [&] {
        ++count;
        q.scheduleAfter(1, forever);
    };
    q.schedule(0, forever);
    const std::size_t ran = q.runAll(100);
    EXPECT_EQ(ran, 100u);
    EXPECT_EQ(count, 100);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    TimeNs fired = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { fired = q.now(); });
    });
    q.runAll();
    EXPECT_EQ(fired, 150u);
}

TEST(EventQueue, CancelFromWithinEarlierEvent)
{
    EventQueue q;
    bool second_ran = false;
    EventId second = q.schedule(20, [&] { second_ran = true; });
    q.schedule(10, [&] { q.cancel(second); });
    q.runAll();
    EXPECT_FALSE(second_ran);
}

TEST(EventQueue, CancelOfFiredEventReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.runAll();
    // Historic bug: this used to park the id in a tombstone set
    // forever, and pending() (heap size minus tombstones) underflowed.
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingNeverUnderflowsUnderCancelChurn)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(static_cast<TimeNs>(i), [] {}));
    // Cancel half, fire the rest, then re-cancel everything.
    for (std::size_t i = 0; i < ids.size(); i += 2)
        EXPECT_TRUE(q.cancel(ids[i]));
    EXPECT_EQ(q.pending(), 50u);
    q.runAll();
    EXPECT_EQ(q.pending(), 0u);
    for (EventId id : ids)
        EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdDoesNotCancelRecycledSlot)
{
    EventQueue q;
    // Fire an event, then schedule another (which recycles the slot):
    // the first id must stay dead and never alias the new event.
    EventId first = q.schedule(1, [] {});
    q.runAll();
    bool ran = false;
    q.schedule(2, [&] { ran = true; });
    EXPECT_FALSE(q.cancel(first));
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, ExecutedCountsLifetimeEvents)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<TimeNs>(i), [] {});
    EventId id = q.schedule(10, [] {});
    q.cancel(id);
    q.runAll();
    EXPECT_EQ(q.executed(), 5u);
    q.schedule(20, [] {});
    q.runAll();
    EXPECT_EQ(q.executed(), 6u);
}

TEST(EventQueue, InterleavedMonotoneAndOutOfOrderSchedules)
{
    // Exercises the monotone-tail / heap split: alternating ascending
    // and descending timestamps must still fire in global time order
    // with FIFO tie-breaks.
    EventQueue q;
    std::vector<TimeNs> fired;
    const TimeNs times[] = {50, 10, 60, 20, 60, 5, 70, 60};
    for (TimeNs t : times)
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    q.runAll();
    const std::vector<TimeNs> want{5, 10, 20, 50, 60, 60, 60, 70};
    EXPECT_EQ(fired, want);
}

TEST(EventQueue, CancelHeadOfMonotoneTail)
{
    EventQueue q;
    bool a = false, b = false;
    EventId first = q.schedule(10, [&] { a = true; });
    q.schedule(20, [&] { b = true; });
    EXPECT_TRUE(q.cancel(first));
    q.runAll();
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, ReservedRanksKeepEagerOrder)
{
    // Events 0..11 take their ranks in id order, at equal and distinct
    // times. The deferred ones form a FIFO, as a link direction's
    // in-flight frames do: each is queued only when the one before it
    // runs (the first right away), by which time eager events ranked
    // after it are already waiting at its timestamp.
    struct Ev
    {
        TimeNs when;
        bool deferred;
    };
    const std::vector<Ev> plan = {
        {5, false}, {5, true},   {5, false},  {5, true},
        {5, false}, {7, false},  {10, true},  {10, false},
        {10, true}, {10, false}, {3, false},  {12, true},
    };

    // Reference: every event scheduled eagerly, in rank order.
    EventQueue ref;
    std::vector<int> want;
    for (std::size_t id = 0; id < plan.size(); ++id)
        ref.schedule(plan[id].when, [&want, id] {
            want.push_back(static_cast<int>(id));
        });
    ref.runAll();
    ASSERT_EQ(want, (std::vector<int>{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11}));

    EventQueue q;
    std::vector<int> got;
    std::vector<std::pair<std::size_t, std::uint64_t>> fifo; // (id, rank)
    std::size_t next = 0; // fifo entry queued next
    std::function<void()> armNext = [&] {
        if (next == fifo.size())
            return;
        const auto [id, seq] = fifo[next++];
        q.scheduleReserved(plan[id].when, seq, [&got, &armNext, id] {
            got.push_back(static_cast<int>(id));
            armNext();
        });
    };
    for (std::size_t id = 0; id < plan.size(); ++id) {
        if (plan[id].deferred)
            fifo.emplace_back(id, q.reserveSeq());
        else
            q.schedule(plan[id].when, [&got, id] {
                got.push_back(static_cast<int>(id));
            });
    }
    armNext();
    q.runAll();
    EXPECT_EQ(got, want);
    EXPECT_EQ(q.executed(), plan.size());

    // A reserved rank does not license scheduling into the past, and a
    // rank that was never handed out is refused.
    EXPECT_THROW(q.scheduleReserved(q.now() - 1, q.reserveSeq(), [] {}),
                 std::logic_error);
    EXPECT_THROW(q.scheduleReserved(q.now(), 1000000, [] {}),
                 std::logic_error);
}

TEST(EventQueue, TracksPeakPending)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(q.schedule(static_cast<TimeNs>(i), [] {}));
    q.cancel(ids[4]);
    q.runOne();
    q.schedule(10, [] {});
    EXPECT_EQ(q.pending(), 4u);
    EXPECT_EQ(q.peakPending(), 5u);
    q.runAll();
    EXPECT_EQ(q.peakPending(), 5u);
}

TEST(EventQueue, TailStorageStaysBoundedWhenItNeverDrains)
{
    // kLive chains of monotone events: each firing schedules its
    // successor kLive ns later, so every event lands on the tail and
    // the tail never empties. Its storage must track the live entries,
    // not the 1M entries that ever passed through it.
    constexpr std::uint64_t kLive = 4096;
    constexpr std::uint64_t kEvents = std::uint64_t{1} << 20;
    EventQueue q;
    std::uint64_t scheduled = 0;
    struct Chain
    {
        EventQueue *q;
        std::uint64_t *scheduled;
        void
        operator()() const
        {
            if (*scheduled < kEvents) {
                ++*scheduled;
                q->scheduleAfter(kLive, *this);
            }
        }
    };
    for (std::uint64_t i = 0; i < kLive; ++i) {
        ++scheduled;
        q.schedule(i, Chain{&q, &scheduled});
    }
    EXPECT_EQ(q.runAll(), kEvents);
    EXPECT_EQ(q.peakPending(), kLive);
    EXPECT_LE(q.tailCapacity(), 4 * kLive);
}

} // namespace
} // namespace isw::sim
