/**
 * @file
 * Allocation gate: the send → switch → deliver path allocates almost
 * nothing in steady state (DESIGN.md §9), and the frame storage a run
 * parks is freed with the run.
 *
 * This binary replaces the global operator new (plain and aligned) to
 * count every heap allocation, which is why it is its own test
 * executable: the counting reaches no other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "dist/multijob.hh"
#include "dist/strategy.hh"
#include "harness/experiment.hh"
#include "net/packet_pool.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    if (p != nullptr)
        g_live.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

// std::pmr's default upstream resource allocates through the aligned
// forms, so they count too.
void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    ::operator delete(p);
}

namespace isw {
namespace {

std::uint64_t
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Allocations made inside run() and the frames it sealed. */
struct RunCount
{
    std::uint64_t allocs = 0;
    std::uint64_t sealed = 0;
};

dist::JobConfig
paperWireDqn(dist::StrategyKind k, std::uint64_t iterations)
{
    dist::JobConfig cfg =
        harness::timingSpec(rl::Algo::kDqn, k, /*workers=*/4).config;
    cfg.stop.max_iterations = iterations;
    cfg.curve_every = iterations;
    return cfg;
}

RunCount
countRun(dist::StrategyKind k, std::uint64_t iterations)
{
    const std::unique_ptr<dist::JobBase> job =
        dist::makeJob(paperWireDqn(k, iterations));
    const std::uint64_t before = allocs();
    const dist::RunResult res = job->run();
    RunCount c;
    c.allocs = allocs() - before;
    EXPECT_TRUE(res.ok()) << res.error;
    c.sealed = static_cast<std::uint64_t>(res.extras.at("packets_sealed"));
    return c;
}

TEST(AllocGate, SteadyStateRoundsAllocateUnderOneFifthPerFrame)
{
    // Iterations 5-8 minus iterations 1-4: each run pays the same
    // warm-up (its own cold frame pool, the agents' first batches), so
    // the difference is what a steady-state round costs.
    for (const dist::StrategyKind k :
         {dist::StrategyKind::kSyncPs, dist::StrategyKind::kSyncIswitch}) {
        (void)countRun(k, 4); // thread-local scratch, lazy statics
        const RunCount four = countRun(k, 4);
        const RunCount eight = countRun(k, 8);
        ASSERT_GT(eight.sealed, four.sealed);
        const double per_frame =
            (static_cast<double>(eight.allocs) -
             static_cast<double>(four.allocs)) /
            static_cast<double>(eight.sealed - four.sealed);
        EXPECT_LE(per_frame, 0.2)
            << dist::strategyName(k) << ": " << four.allocs << " allocs / "
            << four.sealed << " frames at 4 iterations, " << eight.allocs
            << " / " << eight.sealed << " at 8";
    }
}

net::Packet
chunkPacket(net::PacketPool &pool, std::uint64_t seg)
{
    net::Packet pkt;
    pkt.ip.tos = net::kTosData;
    net::ChunkPayload chunk;
    chunk.seg = seg;
    chunk.wire_floats = 8;
    chunk.values = pool.acquireFloats(8);
    chunk.values.assign(8, 1.0f);
    pkt.payload = std::move(chunk);
    return pkt;
}

TEST(AllocGate, PoolParksABurstAndResealsItWithoutAllocating)
{
    constexpr std::size_t kBurst = 10'000;
    net::PacketPool pool;
    const net::PacketPool::Scope scope(pool);
    std::vector<net::PacketPtr> burst;
    burst.reserve(kBurst);
    const auto fill = [&] {
        for (std::size_t i = 0; i < kBurst; ++i)
            burst.push_back(pool.seal(chunkPacket(pool, i)));
    };
    fill();
    burst.clear();
    EXPECT_EQ(pool.idleSlots(), kBurst);
    EXPECT_EQ(pool.idleFloatBuffers(), kBurst);

    const net::PacketPool::Stats s0 = pool.stats();
    const std::uint64_t before = allocs();
    fill();
    EXPECT_EQ(allocs() - before, 0u); // frames, control blocks, buffers
    EXPECT_EQ(pool.stats().packet_allocs, s0.packet_allocs);
    EXPECT_EQ(pool.stats().float_allocs, s0.float_allocs);
    EXPECT_EQ(pool.stats().packet_reuses - s0.packet_reuses, kBurst);
}

TEST(AllocGate, JobFreesItsParkedFramesWhenDestroyed)
{
    // A job's run parks its frames in a pool the job owns: none reach
    // the thread's pool, and the heap holds no more blocks after the
    // job than before it (a first run warms thread-local scratch).
    net::PacketPool &thread_pool = net::PacketPool::local();
    (void)countRun(dist::StrategyKind::kSyncIswitch, 2);
    for (const dist::StrategyKind k :
         {dist::StrategyKind::kSyncPs, dist::StrategyKind::kSyncIswitch,
          dist::StrategyKind::kAsyncIswitch}) {
        thread_pool.trim();
        const std::int64_t live0 = g_live.load(std::memory_order_relaxed);
        {
            const std::unique_ptr<dist::JobBase> job =
                dist::makeJob(paperWireDqn(k, 2));
            const dist::RunResult res = job->run();
            ASSERT_TRUE(res.ok()) << res.error;
            EXPECT_GT(res.extras.at("packets_sealed"), 0.0);
        }
        EXPECT_EQ(thread_pool.idleSlots(), 0u) << dist::strategyName(k);
        EXPECT_EQ(thread_pool.idleFloatBuffers(), 0u)
            << dist::strategyName(k);
        EXPECT_EQ(g_live.load(std::memory_order_relaxed), live0)
            << dist::strategyName(k);
    }
}

TEST(AllocGate, SharedWorldFreesItsParkedFrames)
{
    dist::MultiJobConfig mc;
    dist::JobConfig a = dist::JobConfig::forBenchmark(
        rl::Algo::kDqn, dist::StrategyKind::kSyncIswitch, 2);
    a.stop.max_iterations = 2;
    a.curve_every = 2;
    mc.jobs = {a, a};
    net::PacketPool &thread_pool = net::PacketPool::local();
    thread_pool.trim();
    const dist::MultiJobResult res = dist::runSharedJobs(mc);
    ASSERT_EQ(res.jobs.size(), 2u);
    EXPECT_TRUE(res.jobs[0].ok()) << res.jobs[0].error;
    EXPECT_EQ(thread_pool.idleSlots(), 0u);
    EXPECT_EQ(thread_pool.idleFloatBuffers(), 0u);
}

} // namespace
} // namespace isw
