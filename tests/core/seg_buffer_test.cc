/** @file Unit tests for the segment buffer pool. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "core/seg_buffer.hh"
#include "ml/quantize.hh"
#include "sim/random.hh"

namespace isw::core {
namespace {

net::ChunkPayload
chunk(std::uint64_t seg, std::vector<float> vals)
{
    net::ChunkPayload c;
    c.seg = seg;
    c.wire_floats = static_cast<std::uint32_t>(vals.size());
    c.values = std::move(vals);
    return c;
}

TEST(SegBufferPool, AccumulatesElementwise)
{
    SegBufferPool pool;
    EXPECT_NE(pool.offer(chunk(0, {1, 2, 3}), 2), SlotOutcome::kCompleted);
    EXPECT_EQ(pool.offer(chunk(0, {10, 20, 30}), 2), SlotOutcome::kCompleted);
    SegState st = pool.harvest(0);
    EXPECT_EQ(st.count, 2u);
    ASSERT_EQ(st.acc.size(), 3u);
    EXPECT_FLOAT_EQ(st.acc[0], 11.0f);
    EXPECT_FLOAT_EQ(st.acc[1], 22.0f);
    EXPECT_FLOAT_EQ(st.acc[2], 33.0f);
}

TEST(SegBufferPool, SegmentsAreIndependent)
{
    SegBufferPool pool;
    pool.offer(chunk(1, {1}), 3);
    pool.offer(chunk(2, {5}), 3);
    EXPECT_EQ(pool.count(1), 1u);
    EXPECT_EQ(pool.count(2), 1u);
    EXPECT_EQ(pool.count(3), 0u);
    EXPECT_EQ(pool.activeSegments(), 2u);
}

TEST(SegBufferPool, HarvestRemovesSegment)
{
    SegBufferPool pool;
    pool.offer(chunk(7, {1}), 1);
    pool.harvest(7);
    EXPECT_FALSE(pool.has(7));
    EXPECT_THROW(pool.harvest(7), std::out_of_range);
}

TEST(SegBufferPool, ThresholdOneEmitsImmediately)
{
    SegBufferPool pool;
    EXPECT_EQ(pool.offer(chunk(0, {1}), 1), SlotOutcome::kCompleted);
}

TEST(SegBufferPool, MixedPayloadSizesGrowBuffer)
{
    SegBufferPool pool;
    pool.offer(chunk(0, {1, 1}), 2);
    pool.offer(chunk(0, {1, 1, 1, 1}), 2);
    SegState st = pool.harvest(0);
    ASSERT_EQ(st.acc.size(), 4u);
    EXPECT_FLOAT_EQ(st.acc[0], 2.0f);
    EXPECT_FLOAT_EQ(st.acc[3], 1.0f);
}

TEST(SegBufferPool, WireFloatsTracksMax)
{
    SegBufferPool pool;
    auto c1 = chunk(0, {1});
    c1.wire_floats = 100;
    pool.offer(c1, 2);
    pool.offer(chunk(0, {1}), 2);
    EXPECT_EQ(pool.harvest(0).wire_floats, 100u);
}

TEST(SegBufferPool, ClearDropsEverything)
{
    SegBufferPool pool;
    pool.offer(chunk(0, {1}), 5);
    pool.offer(chunk(1, {1}), 5);
    pool.clear();
    EXPECT_EQ(pool.activeSegments(), 0u);
}

TEST(SegBufferPool, PeakActiveSegmentsTracksPressure)
{
    SegBufferPool pool;
    for (std::uint64_t s = 0; s < 10; ++s)
        pool.offer(chunk(s, {1}), 2);
    for (std::uint64_t s = 0; s < 10; ++s) {
        pool.offer(chunk(s, {1}), 2);
        pool.harvest(s);
    }
    EXPECT_EQ(pool.peakActiveSegments(), 10u);
    EXPECT_EQ(pool.activeSegments(), 0u);
}

TEST(SegBufferPool, DedupeIgnoresRepeatedSource)
{
    SegBufferPool pool;
    EXPECT_NE(pool.offer(chunk(0, {1, 1}), 3, /*src=*/7, true),
              SlotOutcome::kCompleted);
    EXPECT_NE(pool.offer(chunk(0, {1, 1}), 3, /*src=*/7, true),
              SlotOutcome::kCompleted);
    EXPECT_NE(pool.offer(chunk(0, {1, 1}), 3, /*src=*/8, true),
              SlotOutcome::kCompleted);
    EXPECT_EQ(pool.offer(chunk(0, {1, 1}), 3, /*src=*/9, true),
              SlotOutcome::kCompleted);
    SegState st = pool.harvest(0);
    EXPECT_EQ(st.count, 3u);
    EXPECT_FLOAT_EQ(st.acc[0], 3.0f);
}

TEST(ContributorSet, TracksHundredsOfSourcesAndKeepsItsTable)
{
    // Extremes of the IPv4 range included: the table marks empty
    // buckets without reserving a source value.
    std::vector<std::uint32_t> srcs{0u, 0xFFFFFFFFu};
    for (std::uint32_t i = 1; i <= 500; ++i)
        srcs.push_back(0x0A000000u + i * 7919u);
    ContributorSet set;
    for (const std::uint32_t s : srcs)
        EXPECT_TRUE(set.insert(s)) << s;
    for (const std::uint32_t s : srcs) {
        EXPECT_FALSE(set.insert(s)) << s;
        EXPECT_TRUE(set.contains(s)) << s;
    }
    EXPECT_EQ(set.size(), srcs.size());
    EXPECT_FALSE(set.contains(0x0B000000u));
    std::vector<std::uint32_t> seen;
    set.forEach([&seen](std::uint32_t s) { seen.push_back(s); });
    std::sort(seen.begin(), seen.end());
    std::sort(srcs.begin(), srcs.end());
    EXPECT_EQ(seen, srcs);

    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(0u));
    EXPECT_FALSE(set.contains(srcs.back()));
    EXPECT_TRUE(set.insert(srcs.back()));
    EXPECT_EQ(set.size(), 1u);
}

TEST(SegBufferPool, RecycledSlotStartsClean)
{
    // Harvest parks the slot; the next segment that lands on it must
    // see zeroed state — count, dedupe set, accumulator, wire floats.
    SegBufferPool pool;
    auto c = chunk(0, {5, 5, 5});
    c.wire_floats = 99;
    pool.offer(c, 1, /*src=*/1, true);
    EXPECT_EQ(pool.harvest(0).wire_floats, 99u);

    EXPECT_NE(pool.offer(chunk(1, {2}), 2, /*src=*/1, true),
              SlotOutcome::kCompleted);
    EXPECT_EQ(pool.count(1), 1u);
    SegState st = pool.harvest(1);
    EXPECT_EQ(st.wire_floats, 1u);
    ASSERT_EQ(st.acc.size(), 1u);
    EXPECT_FLOAT_EQ(st.acc[0], 2.0f);
}

TEST(SegBufferPool, SparseStripedSegmentsChurn)
{
    // Async striping: seg indices grow without bound while the active
    // set stays small. The index must stay exact through thousands of
    // insert/erase cycles (probe chains, backward-shift deletion).
    SegBufferPool pool;
    const std::uint64_t kRounds = 2000, kStride = 64;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
        const std::uint64_t seg = r * kStride + (r % 7);
        EXPECT_NE(pool.offer(chunk(seg, {1}), 2), SlotOutcome::kCompleted);
        EXPECT_EQ(pool.offer(chunk(seg, {1}), 2), SlotOutcome::kCompleted);
        EXPECT_TRUE(pool.has(seg));
        EXPECT_EQ(pool.count(seg), 2u);
        SegState st = pool.harvest(seg);
        EXPECT_FLOAT_EQ(st.acc[0], 2.0f);
        EXPECT_FALSE(pool.has(seg));
    }
    EXPECT_EQ(pool.activeSegments(), 0u);
}

TEST(SegBufferPool, ManySimultaneousSegmentsProbeCorrectly)
{
    SegBufferPool pool;
    const std::uint64_t n = 500;
    for (std::uint64_t s = 0; s < n; ++s)
        pool.offer(chunk(s * 1000003, {float(s)}), 2);
    EXPECT_EQ(pool.activeSegments(), n);
    // Erase every third to force backward-shift repair, then verify
    // the survivors are all still findable with the right contents.
    for (std::uint64_t s = 0; s < n; s += 3)
        pool.harvest(s * 1000003);
    for (std::uint64_t s = 0; s < n; ++s) {
        if (s % 3 == 0) {
            EXPECT_FALSE(pool.has(s * 1000003));
        } else {
            ASSERT_TRUE(pool.has(s * 1000003));
            EXPECT_FLOAT_EQ(pool.harvest(s * 1000003).acc[0], float(s));
        }
    }
    EXPECT_EQ(pool.activeSegments(), 0u);
}

TEST(SegBufferPool, ClearThenReuse)
{
    SegBufferPool pool;
    pool.offer(chunk(3, {1}), 5);
    pool.clear();
    EXPECT_FALSE(pool.has(3));
    EXPECT_EQ(pool.count(3), 0u);
    EXPECT_EQ(pool.offer(chunk(3, {4}), 1), SlotOutcome::kCompleted);
    EXPECT_FLOAT_EQ(pool.harvest(3).acc[0], 4.0f);
}

// ---------------------------------------------------------------------
// Bounded (SwitchML-style) slot-pool mode.

net::ChunkPayload
jobChunk(std::uint64_t seg, std::uint8_t job, std::uint8_t ver,
         std::vector<float> vals)
{
    net::ChunkPayload c = chunk(seg, std::move(vals));
    c.job = job;
    c.ver = ver;
    return c;
}

TEST(BoundedSlotPool, StreamsTensorLargerThanPool)
{
    // 4 slots, 16-segment tensor, 2 workers, in-order delivery: every
    // segment completes through direct-mapped slot reuse and active
    // occupancy never exceeds the configured capacity.
    SegBufferPool pool;
    pool.setCapacity(4);
    EXPECT_TRUE(pool.bounded());
    for (std::uint64_t seg = 0; seg < 16; ++seg) {
        const auto ver = static_cast<std::uint8_t>((seg / 4) & 1);
        EXPECT_EQ(pool.offer(jobChunk(seg, 0, ver, {1}), 2, 1, true),
                  SlotOutcome::kAccepted);
        EXPECT_EQ(pool.offer(jobChunk(seg, 0, ver, {1}), 2, 2, true),
                  SlotOutcome::kCompleted);
        EXPECT_FLOAT_EQ(pool.harvest(packSegWord(seg)).acc[0], 2.0f);
    }
    EXPECT_LE(pool.peakActiveSegments(), 4u);
    EXPECT_EQ(pool.jobStats(0).completed, 16u);
    EXPECT_EQ(pool.contentionEvents(), 0u);
}

TEST(BoundedSlotPool, GhostDuplicateOfCompletedSegIsStale)
{
    // A duplicate of an already-harvested segment must not re-claim
    // the slot (it would wait forever for contributors that already
    // finished and deadlock the stream).
    SegBufferPool pool;
    pool.setCapacity(4);
    pool.offer(jobChunk(0, 0, 0, {1}), 2, 1, true);
    pool.offer(jobChunk(0, 0, 0, {1}), 2, 2, true);
    pool.harvest(packSegWord(0));
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {1}), 2, 1, true),
              SlotOutcome::kStale);
    EXPECT_EQ(pool.activeSegments(), 0u);
    EXPECT_EQ(pool.jobStats(0).stale_drops, 1u);
}

TEST(BoundedSlotPool, VersionBitSeparatesSlotReuseCycles)
{
    // seg 0 and seg 4 share slot 0 of a 4-slot pool but carry opposite
    // version bits; a straggling seg-0 packet arriving while seg 4
    // owns the slot must not pollute seg 4's sum.
    SegBufferPool pool;
    pool.setCapacity(4);
    pool.offer(jobChunk(0, 0, 0, {1}), 2, 1, true);
    pool.offer(jobChunk(0, 0, 0, {1}), 2, 2, true);
    pool.harvest(packSegWord(0));
    pool.offer(jobChunk(4, 0, 1, {10}), 2, 1, true);
    // Ghost of seg 0 (older seg, same slot): stale, occupant unharmed.
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {99}), 2, 2, true),
              SlotOutcome::kStale);
    // Same segment index but the opposite reuse-cycle version bit:
    // a different occupancy generation — must not mix in.
    EXPECT_EQ(pool.offer(jobChunk(4, 0, 0, {99}), 2, 2, true),
              SlotOutcome::kStale);
    EXPECT_EQ(pool.offer(jobChunk(4, 0, 1, {10}), 2, 2, true),
              SlotOutcome::kCompleted);
    EXPECT_FLOAT_EQ(pool.harvest(packSegWord(4)).acc[0], 20.0f);
    EXPECT_EQ(pool.jobStats(0).stale_drops, 2u);
}

TEST(BoundedSlotPool, NewerSegmentBouncesOffBusySlot)
{
    // Worker skew: seg 4 arrives while seg 0 (same slot) is still
    // aggregating. The newer segment is Nacked (busy), the occupant
    // unharmed.
    SegBufferPool pool;
    pool.setCapacity(4);
    pool.offer(jobChunk(0, 0, 0, {1}), 2, 1, true);
    EXPECT_EQ(pool.offer(jobChunk(4, 0, 1, {5}), 2, 2, true),
              SlotOutcome::kBusy);
    EXPECT_EQ(pool.count(packSegWord(0)), 1u);
    EXPECT_EQ(pool.jobStats(0).busy_drops, 1u);
    // The occupant still completes normally.
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {1}), 2, 2, true),
              SlotOutcome::kCompleted);
}

TEST(BoundedSlotPool, DuplicateWhileInFlightIsDeduped)
{
    SegBufferPool pool;
    pool.setCapacity(4);
    pool.offer(jobChunk(3, 0, 0, {1}), 3, 1, true);
    EXPECT_EQ(pool.offer(jobChunk(3, 0, 0, {1}), 3, 1, true),
              SlotOutcome::kDuplicate);
    EXPECT_EQ(pool.count(packSegWord(3)), 1u);
    EXPECT_EQ(pool.jobStats(0).duplicates, 1u);
}

TEST(BoundedSlotPool, PartitionsIsolateJobsAndRunAdmission)
{
    // Two jobs, 2 slots each. Same segment indices never collide
    // across jobs; a job without a partition is dropped and counted.
    SegBufferPool pool;
    pool.setCapacity(4);
    pool.setJobPartition(1, 0, 2);
    pool.setJobPartition(2, 2, 2);
    EXPECT_TRUE(pool.partitioned());
    EXPECT_EQ(pool.quotaFor(1), 2u);
    EXPECT_EQ(pool.quotaFor(3), 0u);

    EXPECT_EQ(pool.offer(jobChunk(0, 1, 0, {1}), 1, 1, true),
              SlotOutcome::kCompleted);
    EXPECT_EQ(pool.offer(jobChunk(0, 2, 0, {7}), 1, 1, true),
              SlotOutcome::kCompleted);
    EXPECT_FLOAT_EQ(pool.harvest(packSegWord(0, 1)).acc[0], 1.0f);
    EXPECT_FLOAT_EQ(pool.harvest(packSegWord(0, 2)).acc[0], 7.0f);

    EXPECT_EQ(pool.offer(jobChunk(0, 3, 0, {1}), 1, 1, true),
              SlotOutcome::kUnadmitted);
    EXPECT_EQ(pool.jobStats(3).unadmitted, 1u);
    EXPECT_GE(pool.contentionEvents(), 1u);
}

TEST(BoundedSlotPool, PartitionValidation)
{
    SegBufferPool unbounded;
    EXPECT_THROW(unbounded.setJobPartition(1, 0, 2), std::logic_error);
    SegBufferPool pool;
    pool.setCapacity(4);
    EXPECT_THROW(pool.setJobPartition(1, 2, 3), std::invalid_argument);
    EXPECT_THROW(pool.setJobPartition(1, 0, 0), std::invalid_argument);
}

TEST(BoundedSlotPool, ReclaimFromDropsCrashedWorkersPartials)
{
    SegBufferPool pool;
    pool.setCapacity(4);
    pool.offer(jobChunk(0, 0, 0, {1}), 3, /*src=*/11, true);
    pool.offer(jobChunk(1, 0, 0, {1}), 3, /*src=*/11, true);
    pool.offer(jobChunk(2, 0, 0, {1}), 3, /*src=*/22, true);
    EXPECT_EQ(pool.reclaimFrom(11), 2u);
    EXPECT_EQ(pool.activeSegments(), 1u);
    EXPECT_EQ(pool.jobStats(0).reclaimed, 2u);
    // The reclaimed segments stay admissible (floor untouched): the
    // surviving workers' resends can still complete them.
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {2}), 1, /*src=*/22, true),
              SlotOutcome::kCompleted);
    EXPECT_FLOAT_EQ(pool.harvest(packSegWord(0)).acc[0], 2.0f);
}

TEST(SegBufferPool, ReclaimFromUnboundedPool)
{
    SegBufferPool pool;
    pool.offer(chunk(5, {1}), 3, /*src=*/7, true);
    pool.offer(chunk(9, {1}), 3, /*src=*/8, true);
    EXPECT_EQ(pool.reclaimFrom(7), 1u);
    EXPECT_FALSE(pool.has(5));
    EXPECT_TRUE(pool.has(9));
    EXPECT_EQ(pool.jobStats(0).reclaimed, 1u);
}

TEST(BoundedSlotPool, HarvestPartialLeavesSegmentAdmissible)
{
    // Recovery drop (clear_segment / harvestPartial): the floor must
    // NOT advance, so the retransmitted segment can be rebuilt.
    SegBufferPool pool;
    pool.setCapacity(2);
    pool.offer(jobChunk(0, 0, 0, {1}), 2, 1, true);
    pool.harvest(packSegWord(0), /*completed=*/false);
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {1}), 2, 1, true),
              SlotOutcome::kAccepted);
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {1}), 2, 2, true),
              SlotOutcome::kCompleted);
}

TEST(BoundedSlotPool, UnorderedTrafficSkipsFloor)
{
    // Async traffic (dedupe off) legitimately reuses segment indices
    // across iterations: completing seg 0 must not blacklist the next
    // iteration's seg 0.
    SegBufferPool pool;
    pool.setCapacity(4);
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {1}), 1), //
              SlotOutcome::kCompleted);
    pool.harvest(packSegWord(0));
    EXPECT_EQ(pool.offer(jobChunk(0, 0, 0, {2}), 1),
              SlotOutcome::kCompleted);
    EXPECT_FLOAT_EQ(pool.harvest(packSegWord(0)).acc[0], 2.0f);
}

// ---------------------------------------------------------------------
// Quantized accumulate modes (DESIGN.md §14).

/** Encode @p vals into an int32 chunk at shared exponent @p e. */
net::ChunkPayload
int32Chunk(std::uint64_t seg, std::vector<float> vals, int e)
{
    net::ChunkPayload c;
    c.seg = seg;
    c.prec = net::Precision::kInt32;
    c.qexp = static_cast<std::int8_t>(e);
    c.wire_floats = static_cast<std::uint32_t>(vals.size());
    c.values.resize(vals.size());
    ml::encodeBlockInt32(vals.data(), vals.size(), e, c.values.data());
    return c;
}

TEST(QuantSlotPool, Int32AccumulatesExactIntegers)
{
    SegBufferPool pool;
    const int e = 4;
    EXPECT_NE(pool.offer(int32Chunk(0, {0.5f, -0.25f}, e), 2),
              SlotOutcome::kCompleted);
    EXPECT_EQ(pool.offer(int32Chunk(0, {0.25f, 0.25f}, e), 2),
              SlotOutcome::kCompleted);
    SegState st = pool.harvest(0);
    EXPECT_EQ(st.prec, net::Precision::kInt32);
    EXPECT_EQ(st.qexp, e);
    std::vector<float> out(st.acc.size());
    ml::decodeBlockInt32(st.acc.data(), st.acc.size(), e, out.data());
    EXPECT_FLOAT_EQ(out[0], 0.75f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
    EXPECT_EQ(pool.totals().overflow_clamps, 0u);
    EXPECT_EQ(pool.totals().exp_rescales, 0u);
}

TEST(QuantSlotPool, Fp16AccumulatesHalfwise)
{
    SegBufferPool pool;
    net::ChunkPayload a, b;
    a.seg = b.seg = 0;
    a.prec = b.prec = net::Precision::kFp16;
    a.wire_floats = b.wire_floats = 1;
    const float va[2] = {1.5f, -2.0f}, vb[2] = {0.25f, 8.0f};
    a.values.resize(1);
    b.values.resize(1);
    ml::packHalfWords(va, 2, a.values.data());
    ml::packHalfWords(vb, 2, b.values.data());
    pool.offer(a, 2);
    EXPECT_EQ(pool.offer(b, 2), SlotOutcome::kCompleted);
    SegState st = pool.harvest(0);
    EXPECT_EQ(st.prec, net::Precision::kFp16);
    float out[2];
    ml::unpackHalfWords(st.acc.data(), 2, out);
    EXPECT_EQ(out[0], 1.75f);
    EXPECT_EQ(out[1], 6.0f);
}

TEST(QuantSlotPool, Int32ArrivalOrderBitIdentical)
{
    // The property the int32 datapath exists for: same contributions,
    // any arrival order, identical aggregated bits.
    sim::Rng rng(17);
    const std::uint32_t h = 5;
    const std::size_t n = 33;
    std::vector<std::vector<float>> contribs(h);
    for (auto &c : contribs) {
        c.resize(n);
        for (auto &x : c)
            x = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    const int e = 6;
    std::vector<std::uint32_t> order(h);
    for (std::uint32_t w = 0; w < h; ++w)
        order[w] = w;
    std::vector<std::int32_t> ref;
    for (int perm = 0; perm < 6; ++perm) {
        SegBufferPool pool;
        bool done = false;
        for (std::uint32_t w : order)
            done = pool.offer(int32Chunk(9, contribs[w], e), h,
                              /*src=*/w, true) == SlotOutcome::kCompleted;
        EXPECT_TRUE(done);
        const SegState st = pool.harvest(9);
        std::vector<std::int32_t> bits(st.acc.size());
        for (std::size_t i = 0; i < st.acc.size(); ++i)
            bits[i] = std::bit_cast<std::int32_t>(st.acc[i]);
        if (ref.empty())
            ref = bits;
        else
            EXPECT_EQ(bits, ref) << "order " << perm;
        std::rotate(order.begin(), order.begin() + 1, order.end());
        if (perm == 2)
            std::reverse(order.begin(), order.end());
    }
}

TEST(QuantSlotPool, BoundedPoolArrivalOrderBitIdentical)
{
    // 4-slot bounded pool, 8 striped segments, 3 workers: segment
    // completion order and per-segment contributor order both vary,
    // yet every harvested accumulator is bit-identical.
    sim::Rng rng(19);
    const std::uint32_t h = 3;
    const std::uint64_t segs = 8;
    const std::size_t n = 16;
    const int e = 5;
    std::vector<std::vector<std::vector<float>>> grads(segs);
    for (auto &per_seg : grads) {
        per_seg.resize(h);
        for (auto &g : per_seg) {
            g.resize(n);
            for (auto &x : g)
                x = static_cast<float>(rng.uniform(-0.25, 0.25));
        }
    }
    auto run = [&](bool worker_major,
                   bool reverse_workers) -> std::vector<std::int32_t> {
        SegBufferPool pool;
        pool.setCapacity(4);
        std::vector<std::int32_t> all_bits;
        // Window of 4: slots are direct-mapped seg % 4, so finish a
        // slot's occupant before its successor arrives.
        for (std::uint64_t seg = 0; seg < segs; ++seg) {
            std::vector<std::uint32_t> ws(h);
            for (std::uint32_t w = 0; w < h; ++w)
                ws[w] = reverse_workers ? h - 1 - w : w;
            if (worker_major && seg % 2 == 1)
                std::rotate(ws.begin(), ws.begin() + 1, ws.end());
            const auto ver = static_cast<std::uint8_t>((seg / 4) & 1);
            for (std::uint32_t w : ws) {
                auto c = int32Chunk(seg, grads[seg][w], e);
                c.ver = ver;
                pool.offer(c, h, /*src=*/w, true);
            }
            const SegState st = pool.harvest(packSegWord(seg));
            EXPECT_EQ(st.count, h);
            for (float f : st.acc)
                all_bits.push_back(std::bit_cast<std::int32_t>(f));
        }
        return all_bits;
    };
    const auto a = run(false, false);
    const auto b = run(false, true);
    const auto c = run(true, false);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}

TEST(QuantSlotPool, MixedExponentsRescaleTowardMaxAndCount)
{
    SegBufferPool pool;
    // First contribution at e=4, second at e=6: the slot rescales its
    // accumulator up to 6 (max is order-independent) and counts it.
    EXPECT_NE(pool.offer(int32Chunk(0, {0.5f}, 4), 2), SlotOutcome::kCompleted);
    EXPECT_EQ(pool.offer(int32Chunk(0, {0.5f}, 6), 2), SlotOutcome::kCompleted);
    SegState st = pool.harvest(0);
    EXPECT_EQ(st.qexp, 6);
    EXPECT_EQ(pool.totals().exp_rescales, 1u);
    float out = 0.0f;
    ml::decodeBlockInt32(st.acc.data(), 1, 6, &out);
    EXPECT_FLOAT_EQ(out, 1.0f);

    // Lower-exponent latecomer: incoming rescales up, slot unchanged.
    SegBufferPool pool2;
    pool2.offer(int32Chunk(0, {0.5f}, 6), 2);
    pool2.offer(int32Chunk(0, {0.5f}, 4), 2);
    SegState st2 = pool2.harvest(0);
    EXPECT_EQ(st2.qexp, 6);
    EXPECT_EQ(pool2.totals().exp_rescales, 1u);
    ml::decodeBlockInt32(st2.acc.data(), 1, 6, &out);
    EXPECT_FLOAT_EQ(out, 1.0f);
}

TEST(QuantSlotPool, OverflowClampsAtRailAndCounts)
{
    SegBufferPool pool;
    // 0.9 at e=0 encodes as ~0.45 * 2^31; the third contribution
    // pushes the integer sum past the rail and must saturate, not wrap.
    pool.offer(int32Chunk(0, {0.9f}, 0), 3);
    pool.offer(int32Chunk(0, {0.9f}, 0), 3);
    EXPECT_EQ(pool.offer(int32Chunk(0, {0.9f}, 0), 3), SlotOutcome::kCompleted);
    SegState st = pool.harvest(0);
    EXPECT_EQ(std::bit_cast<std::int32_t>(st.acc[0]), ml::kQuantMax);
    EXPECT_EQ(pool.totals().overflow_clamps, 1u);
}

} // namespace
} // namespace isw::core
