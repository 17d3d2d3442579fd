/** @file Sharded engine tests: serial equivalence, deterministic
 *  cross-domain merging, lookahead enforcement, cancellation, and
 *  window dispatch between the owning thread and the pool. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/shard.hh"
#include "sim/simulation.hh"

namespace isw::sim {
namespace {

TEST(ShardedEngine, SingleDomainMatchesSerialQueue)
{
    // The degenerate engine must replay the serial queue exactly:
    // same order (including FIFO ties), same clock, same counts.
    const auto feed = [](auto &&schedule) {
        schedule(30, "c");
        schedule(10, "a");
        schedule(10, "b"); // FIFO tie with "a"
        schedule(20, "d");
    };

    std::string serial;
    EventQueue q;
    feed([&](TimeNs t, const char *tag) {
        q.schedule(t, [&serial, tag] { serial += tag; });
    });
    const std::size_t serial_ran = q.runAll();

    std::string sharded;
    ShardedEngine eng(ShardPlan{1, 100, 1});
    feed([&](TimeNs t, const char *tag) {
        eng.schedule(0, t, [&sharded, tag] { sharded += tag; });
    });
    const std::size_t sharded_ran = eng.runAll();

    EXPECT_EQ(serial, "abdc");
    EXPECT_EQ(sharded, serial);
    EXPECT_EQ(sharded_ran, serial_ran);
    EXPECT_EQ(eng.now(), q.now());
    EXPECT_TRUE(eng.empty());
}

/** Three source domains each firing a burst of sends into domain 0,
 *  all arriving at the same instant: the merge must order them by
 *  (when, source domain, per-source sequence) regardless of the
 *  worker-thread count. */
std::string
crossMergeTrace(unsigned threads)
{
    ShardPlan plan;
    plan.domains = 4;
    plan.lookahead = 100;
    plan.threads = threads;
    ShardedEngine eng(plan);
    // Only domain 0's events append, so the log needs no locking.
    auto log = std::make_shared<std::string>();
    for (DomainId src = 1; src <= 3; ++src) {
        eng.schedule(src, 10, [&eng, src, log] {
            for (int burst = 0; burst < 3; ++burst) {
                const std::string tag =
                    " s" + std::to_string(src) + "#" + std::to_string(burst);
                eng.schedule(0, eng.now() + eng.lookahead(),
                             [log, tag] { *log += tag; });
            }
        });
    }
    eng.runAll();
    EXPECT_EQ(eng.crossEvents(), 9u);
    return *log;
}

TEST(ShardedEngine, CrossDomainMergeIsDeterministic)
{
    const std::string expected =
        " s1#0 s1#1 s1#2 s2#0 s2#1 s2#2 s3#0 s3#1 s3#2";
    EXPECT_EQ(crossMergeTrace(1), expected);
    EXPECT_EQ(crossMergeTrace(2), expected);
    EXPECT_EQ(crossMergeTrace(4), expected);
}

TEST(ShardedEngine, LookaheadViolationThrows)
{
    // threads = 1 keeps the offending callback on the calling thread
    // so the logic_error propagates out of runAll.
    ShardedEngine eng(ShardPlan{2, 100, 1});
    eng.schedule(0, 10, [&eng] {
        eng.schedule(1, eng.now() + 1, [] {}); // < window end: illegal
    });
    EXPECT_THROW(eng.runAll(), std::logic_error);
}

TEST(ShardedEngine, CrossEventsAreNotCancellable)
{
    ShardedEngine eng(ShardPlan{2, 100, 1});
    bool cross_ran = false;
    bool cancelled_ran = false;
    eng.schedule(0, 10, [&] {
        const EventId cross =
            eng.schedule(1, eng.now() + 100, [&] { cross_ran = true; });
        EXPECT_EQ(cross, kInvalidEventId);
        // Same-domain events stay cancellable mid-window.
        const EventId local =
            eng.schedule(0, eng.now() + 5, [&] { cancelled_ran = true; });
        EXPECT_NE(local, kInvalidEventId);
        EXPECT_TRUE(eng.cancelHere(local));
    });
    eng.runAll();
    EXPECT_TRUE(cross_ran);
    EXPECT_FALSE(cancelled_ran);
}

TEST(ShardedEngine, RunUntilAdvancesToDeadlineWhenDrained)
{
    ShardedEngine eng(ShardPlan{2, 50, 1});
    int ran = 0;
    eng.schedule(1, 30, [&ran] { ++ran; });
    eng.runUntil(500);
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(eng.empty());
    EXPECT_EQ(eng.now(), 500u);
    // A deadline before the next event executes nothing...
    eng.schedule(0, 900, [&ran] { ++ran; });
    eng.runUntil(700);
    EXPECT_EQ(ran, 1);
    // ...and the deadline-inclusive contract matches EventQueue.
    eng.runUntil(900);
    EXPECT_EQ(ran, 2);
}

TEST(ShardedEngine, DomainHooksWrapEveryWindowSlice)
{
    ShardedEngine eng(ShardPlan{2, 100, 1});
    std::vector<int> entered, left;
    eng.setDomainHooks(
        [&entered](DomainId d) { entered.push_back(static_cast<int>(d)); },
        [&left](DomainId d) { left.push_back(static_cast<int>(d)); });
    eng.schedule(0, 10, [] {});
    eng.schedule(1, 10, [] {});
    eng.runAll();
    EXPECT_EQ(entered, left);
    EXPECT_EQ(entered, (std::vector<int>{0, 1}));
}

TEST(ShardedEngine, CrossBatchesCountFlushesNotEvents)
{
    // A window slice's staged sends to one destination are merged at
    // the barrier as a single batch: 3 events, 1 batch.
    ShardedEngine eng(ShardPlan{2, 100, 1});
    int ran = 0;
    eng.schedule(1, 10, [&eng, &ran] {
        for (int i = 0; i < 3; ++i)
            eng.schedule(0, eng.now() + eng.lookahead(),
                         [&ran] { ++ran; });
    });
    eng.runAll();
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(eng.crossEvents(), 3u);
    EXPECT_EQ(eng.crossBatches(), 1u);
}

TEST(ShardedEngine, BudgetStopKeepsStagedHandoffPending)
{
    // A budget stop right after an event that staged a handoff: the
    // handoff still counts as pending, and the next run merges and
    // delivers it exactly once.
    ShardedEngine eng(ShardPlan{2, 100, 1});
    int delivered = 0;
    eng.schedule(1, 10, [&eng, &delivered] {
        eng.schedule(0, eng.now() + eng.lookahead(),
                     [&delivered] { ++delivered; });
    });
    EXPECT_EQ(eng.runAll(1), 1u);
    EXPECT_EQ(eng.pending(), 1u);
    EXPECT_FALSE(eng.empty());
    EXPECT_EQ(delivered, 0);
    eng.runAll();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(eng.crossEvents(), 1u);
    EXPECT_EQ(eng.crossBatches(), 1u);
    EXPECT_TRUE(eng.empty());
}

TEST(ShardedEngine, SerialFastPathSkipsIdleDomains)
{
    // Only domain 3 ever has work: every window should take the
    // single-active-domain fast path and count the idle domains as
    // skipped, without waking the worker pool.
    ShardedEngine eng(ShardPlan{4, 10, 2});
    int ran = 0;
    std::function<void()> chain = [&] {
        if (++ran < 5)
            eng.schedule(3, eng.now() + 50, chain);
    };
    eng.schedule(3, 10, chain);
    eng.runAll();
    EXPECT_EQ(ran, 5);
    EXPECT_GT(eng.windows(), 0u);
    EXPECT_EQ(eng.windowsInline(), eng.windows());
    EXPECT_GT(eng.domainsSkipped(), 0u);
}

/** What runChains() saw; each per-domain list is written only by its
 *  own domain's slice. */
struct ChainRun
{
    std::vector<std::vector<std::string>> log;
    std::vector<std::vector<std::thread::id>> ran_on;
    std::size_t widest = 0; ///< most domains that ran in one window
    std::uint64_t windows = 0;
    std::uint64_t inline_windows = 0;
};

/** @p domains chains, each stepping every 30 ns from a start
 *  staggered by @p stagger per domain and handing one event to the
 *  next domain per step, logging what ran where, when and on which
 *  thread. */
ChainRun
runChains(std::size_t domains, unsigned threads, TimeNs stagger)
{
    ShardedEngine eng(ShardPlan{domains, 100, threads});
    ChainRun out;
    out.log.resize(domains);
    out.ran_on.resize(domains);
    std::vector<std::uint8_t> touched(domains, 0);
    const auto note = [&](DomainId d, const std::string &what) {
        out.log[d].push_back(std::to_string(eng.now()) + " " + what);
        out.ran_on[d].push_back(std::this_thread::get_id());
        touched[d] = 1;
    };
    eng.setBarrierHook([&] {
        std::size_t ran = 0;
        for (auto &t : touched)
            ran += std::exchange(t, 0);
        out.widest = std::max(out.widest, ran);
    });
    std::function<void(DomainId, int)> step = [&](DomainId d, int left) {
        note(d, "step " + std::to_string(left));
        if (left == 0)
            return;
        const auto next = static_cast<DomainId>((d + 1) % domains);
        eng.schedule(next, eng.now() + eng.lookahead(), [&note, next, d] {
            note(next, "from " + std::to_string(d));
        });
        eng.schedule(d, eng.now() + 30,
                     [&step, d, left] { step(d, left - 1); });
    };
    for (std::size_t d = 0; d < domains; ++d) {
        const auto id = static_cast<DomainId>(d);
        eng.schedule(id, 10 + stagger * d, [&step, id] { step(id, 12); });
    }
    eng.runAll();
    out.windows = eng.windows();
    out.inline_windows = eng.windowsInline();
    return out;
}

TEST(ShardedEngine, SparseWindowsRunOnTheOwningThread)
{
    // 8 domains stay below the pool threshold at 4 threads, so even
    // windows with several active domains run on the calling thread.
    ASSERT_LT(8u, ShardedEngine::kPoolDomainsPerThread * 4);
    const ChainRun run = runChains(8, 4, 45);
    EXPECT_GE(run.widest, 2u);
    EXPECT_EQ(run.inline_windows, run.windows);
    const auto owner = std::this_thread::get_id();
    for (const auto &ids : run.ran_on) {
        ASSERT_FALSE(ids.empty());
        for (const auto &id : ids)
            EXPECT_EQ(id, owner);
    }
}

TEST(ShardedEngine, WideWindowsWakeThePool)
{
    // 24 domains step in lockstep, so every window holds all of them:
    // at 4 threads that is past the pool threshold, and the pool's
    // result must match the calling thread's, domain by domain.
    const ChainRun pooled = runChains(24, 4, 0);
    const ChainRun one = runChains(24, 1, 0);
    EXPECT_GE(pooled.widest, ShardedEngine::kPoolDomainsPerThread * 4);
    EXPECT_LT(pooled.inline_windows, pooled.windows);
    EXPECT_EQ(one.inline_windows, one.windows);
    EXPECT_EQ(pooled.windows, one.windows);
    EXPECT_EQ(pooled.log, one.log);
    const auto owner = std::this_thread::get_id();
    bool off_owner = false;
    for (const auto &ids : pooled.ran_on)
        for (const auto &id : ids)
            off_owner = off_owner || id != owner;
    EXPECT_TRUE(off_owner);
}

TEST(ShardedEngine, PoolWindowExceptionReachesTheOwner)
{
    // A window wide enough for the pool at 4 threads, in which one
    // slice breaks the cancel contract while the others are busy. The
    // throw must reach runAll's caller only after every other thread
    // finished its slices, whichever thread threw, and the engine must
    // then shut its pool down cleanly.
    const std::size_t domains = ShardedEngine::kPoolDomainsPerThread * 4;
    constexpr int kSteps = 50;
    for (const DomainId thrower : {DomainId{1}, DomainId{0}}) {
        ShardedEngine eng(ShardPlan{domains, 100, 4});
        const EventId victim = eng.schedule(2, 500, [] {});
        // Written only by each domain's own slice.
        std::vector<int> steps(domains, 0);
        std::thread::id thrown_on;
        std::function<void(DomainId)> step = [&](DomainId d) {
            if (d == thrower) {
                thrown_on = std::this_thread::get_id();
                eng.cancelIn(2, victim); // foreign domain mid-window
            }
            if (++steps[d] < kSteps)
                eng.schedule(d, eng.now() + 1, [&step, d] { step(d); });
        };
        for (std::size_t d = 0; d < domains; ++d) {
            const auto id = static_cast<DomainId>(d);
            eng.schedule(id, 10, [&step, id] { step(id); });
        }
        EXPECT_THROW(eng.runAll(), std::logic_error);
        // The throwing thread stops at the throw; every other thread
        // ran its domains to the end of the window.
        for (std::size_t d = 0; d < domains; ++d) {
            if (d % eng.threads() != thrower % eng.threads())
                EXPECT_EQ(steps[d], kSteps) << "domain " << d;
        }
        // Domain 1 belongs to a pool thread, domain 0 to the owner.
        EXPECT_EQ(thrown_on == std::this_thread::get_id(), thrower == 0);
    }
}

TEST(ShardedEngine, BarrierHookRunsAfterEveryWindow)
{
    ShardedEngine eng(ShardPlan{2, 50, 2});
    std::uint64_t barriers = 0;
    eng.setBarrierHook([&barriers] { ++barriers; });
    eng.schedule(0, 10, [] {});
    eng.schedule(1, 10, [] {});
    eng.schedule(0, 500, [] {});
    eng.runAll();
    EXPECT_EQ(barriers, eng.windows());
    EXPECT_GE(barriers, 2u);
}

TEST(ShardedEngine, CancelInRejectsForeignDomainMidWindow)
{
    ShardedEngine eng(ShardPlan{2, 100, 1});
    bool target_ran = false;
    const EventId target =
        eng.schedule(1, 500, [&target_ran] { target_ran = true; });
    ASSERT_NE(target, kInvalidEventId);
    // Mid-window, from domain 0: EventIds are queue-local, so a
    // cross-domain cancel must fail loudly instead of corrupting the
    // foreign queue.
    eng.schedule(0, 10, [&eng, target] { eng.cancelIn(1, target); });
    EXPECT_THROW(eng.runAll(), std::logic_error);
}

TEST(ShardedEngine, CancelInWorksFromSetupAndOwningDomain)
{
    ShardedEngine eng(ShardPlan{2, 100, 1});
    bool a_ran = false;
    bool b_ran = false;
    const EventId a = eng.schedule(1, 500, [&a_ran] { a_ran = true; });
    // Setup context (no domain pinned yet): any domain is cancellable.
    EXPECT_TRUE(eng.cancelIn(1, a));
    // Mid-window, from the owning domain: also fine.
    eng.schedule(1, 10, [&eng, &b_ran] {
        const EventId b =
            eng.schedule(1, eng.now() + 5, [&b_ran] { b_ran = true; });
        EXPECT_TRUE(eng.cancelIn(1, b));
    });
    // A cancelled-slot id is a polite no-op, as is kInvalidEventId.
    EXPECT_FALSE(eng.cancelIn(1, kInvalidEventId));
    eng.runAll();
    EXPECT_FALSE(a_ran);
    EXPECT_FALSE(b_ran);
}

TEST(ShardedEngine, ReservedRanksStayInTheirDomain)
{
    ShardedEngine eng(ShardPlan{2, 100, 1});
    std::vector<int> order;
    // Setup context: any domain's queue is reachable directly.
    const std::uint64_t early = eng.reserveSeq(1);
    ASSERT_NE(early, 0u);
    eng.schedule(1, 50, [&order] { order.push_back(2); });
    eng.scheduleReserved(1, 50, early, [&order] { order.push_back(1); });
    // From inside domain 0, domain 1's ranks are out of reach: no rank
    // is handed out, and queueing with one there is refused.
    std::uint64_t foreign = 1;
    eng.schedule(0, 10, [&eng, &foreign, early] {
        foreign = eng.reserveSeq(1);
        EXPECT_THROW(eng.scheduleReserved(1, 500, early, [] {}),
                     std::logic_error);
    });
    eng.runAll();
    EXPECT_EQ(foreign, 0u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulationShard, CancelEventInTargetsTheHomeDomain)
{
    Simulation s{1};
    s.shard(ShardPlan{3, 10, 1});
    bool ran = false;
    const EventId id = s.atInDomain(2, 50, [&ran] { ran = true; });
    EXPECT_TRUE(s.cancelEventIn(2, id));
    s.run();
    EXPECT_FALSE(ran);
    // Serial simulations route cancelEventIn to the single queue.
    Simulation serial{1};
    bool serial_ran = false;
    const EventId sid = serial.at(50, [&serial_ran] { serial_ran = true; });
    EXPECT_TRUE(serial.cancelEventIn(0, sid));
    serial.run();
    EXPECT_FALSE(serial_ran);
}

TEST(SimulationShard, RoutesThroughShardedEngine)
{
    Simulation s{1};
    // Lookahead 4 < the 5 ns gap: each event gets its own window, so
    // cross-domain execution follows timestamps (order within a single
    // window is the conservative contract's freedom, not tested here).
    s.shard(ShardPlan{3, 4, 1});
    ASSERT_TRUE(s.sharded());
    std::string order;
    s.atInDomain(1, 10, [&] { order += "a"; });
    s.atInDomain(2, 5, [&] { order += "b"; });
    s.run();
    EXPECT_EQ(order, "ba");
    EXPECT_EQ(s.eventsExecuted(), 2u);
    EXPECT_TRUE(s.queueEmpty());
}

TEST(SimulationShard, RejectsDoubleShardAndLateShard)
{
    Simulation s{1};
    s.shard(ShardPlan{2, 100, 1});
    EXPECT_THROW(s.shard(ShardPlan{2, 100, 1}), std::logic_error);

    Simulation late{1};
    late.after(10, [] {});
    EXPECT_THROW(late.shard(ShardPlan{2, 100, 1}), std::logic_error);
}

TEST(UnshardedSimulation, RunBudgetExecutesExactlyN)
{
    // The one-domain engine runs a whole run() call as one unbounded
    // window, so the runaway guard must cut inside the window.
    Simulation s{1};
    std::size_t fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 100)
            s.after(1, chain);
    };
    s.after(0, chain);
    EXPECT_EQ(s.run(7), 7u);
    EXPECT_EQ(fired, 7u);
    EXPECT_EQ(s.eventsExecuted(), 7u);
    EXPECT_EQ(s.now(), 6u);
    EXPECT_EQ(s.pendingEvents(), 1u);
    EXPECT_EQ(s.run(3), 3u);
    EXPECT_EQ(fired, 10u);
    EXPECT_EQ(s.run(), 90u);
}

TEST(UnshardedSimulation, EveryDomainIsTheSingleQueue)
{
    Simulation s{1};
    EXPECT_FALSE(s.sharded());
    EXPECT_EQ(s.engine().domains(), 1u);
    std::string order;
    const EventId dropped = s.atInDomain(7, 20, [&] { order += "x"; });
    s.atInDomain(3, 10, [&] { order += "a"; });
    s.at(30, [&] {
        // Mid-window too: any domain id schedules into and cancels
        // from the one queue.
        const EventId id = s.atInDomain(7, 40, [&] { order += "y"; });
        EXPECT_NE(id, kInvalidEventId);
        EXPECT_TRUE(s.cancelEventIn(7, id));
        s.atInDomain(5, 35, [&] { order += "b"; });
    });
    EXPECT_NE(dropped, kInvalidEventId);
    EXPECT_TRUE(s.cancelEventIn(7, dropped));
    EXPECT_FALSE(s.cancelEventIn(7, dropped));
    s.run();
    EXPECT_EQ(order, "ab");
    EXPECT_EQ(s.now(), 35u);
}

TEST(UnshardedSimulation, RunUntilParksClockOnDrainedQueue)
{
    Simulation s{1};
    int ran = 0;
    s.at(30, [&ran] { ++ran; });
    EXPECT_EQ(s.runUntil(500), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(s.queueEmpty());
    EXPECT_EQ(s.now(), 500u);
    // Relative scheduling continues from the parked clock.
    s.after(10, [&] { EXPECT_EQ(s.now(), 510u); });
    EXPECT_EQ(s.runUntil(505), 0u);
    EXPECT_EQ(s.now(), 500u); // not drained: the clock stays put
    EXPECT_EQ(s.runUntil(510), 1u);
}

TEST(UnshardedSimulation, NestedRunKeepsTheOuterContext)
{
    // A Simulation driven from inside another's event must leave the
    // outer clock and scheduling domain intact when it returns.
    Simulation outer{1};
    TimeNs seen = 0;
    outer.at(100, [&] {
        Simulation inner{2};
        inner.at(7, [] {});
        inner.run();
        seen = outer.now();
        outer.after(5, [&] { seen += outer.now(); });
    });
    outer.run();
    EXPECT_EQ(seen, 100u + 105u);
}

} // namespace
} // namespace isw::sim
