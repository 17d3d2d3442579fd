/** @file Vector transport and reassembly tests. */

#include <gtest/gtest.h>

#include "dist/transport.hh"
#include "net/link.hh"

namespace isw::dist {
namespace {

net::ChunkPayload
chunkOf(const WireFormat &fmt, std::span<const float> logical,
        std::uint64_t seg)
{
    net::ChunkPayload c;
    c.seg = seg;
    c.wire_floats = core::floatsInSeg(seg, fmt.wire_bytes);
    const std::uint64_t begin = seg * core::kFloatsPerSeg;
    if (begin < logical.size()) {
        const auto end = std::min<std::uint64_t>(
            begin + core::kFloatsPerSeg, logical.size());
        c.values.assign(logical.begin() + begin, logical.begin() + end);
    }
    return c;
}

TEST(WireFormat, ClampsToLogicalSize)
{
    const WireFormat f = WireFormat::forVector(1000, 100, true);
    EXPECT_EQ(f.wire_bytes, 4000u);
    const WireFormat g = WireFormat::forVector(10, 40000, true);
    EXPECT_EQ(g.wire_bytes, 40000u);
}

TEST(WireFormat, SegmentCountMatchesProtocol)
{
    const WireFormat f = WireFormat::forVector(0, 366 * 4 * 3 + 4, true);
    EXPECT_EQ(f.segments(), 4u);
}

TEST(VectorAssembler, AssemblesInOrder)
{
    std::vector<float> data(800);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<float>(i);
    const WireFormat fmt = WireFormat::forVector(800, 800 * 4, true);
    VectorAssembler rx(fmt);
    for (std::uint64_t s = 0; s < fmt.segments(); ++s) {
        const bool done = rx.offer(chunkOf(fmt, data, s));
        EXPECT_EQ(done, s + 1 == fmt.segments());
    }
    EXPECT_TRUE(rx.complete());
    EXPECT_EQ(rx.vector(), data);
}

TEST(VectorAssembler, AssemblesOutOfOrder)
{
    std::vector<float> data(1000, 0.0f);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<float>(i) * 0.5f;
    const WireFormat fmt = WireFormat::forVector(1000, 1000 * 4, false);
    VectorAssembler rx(fmt);
    const std::uint64_t n = fmt.segments();
    for (std::uint64_t s = n; s-- > 0;)
        rx.offer(chunkOf(fmt, data, s));
    EXPECT_TRUE(rx.complete());
    EXPECT_EQ(rx.vector(), data);
}

TEST(VectorAssembler, DuplicatesAreIdempotent)
{
    std::vector<float> data(10, 3.0f);
    const WireFormat fmt = WireFormat::forVector(10, 40, true);
    VectorAssembler rx(fmt);
    EXPECT_TRUE(rx.offer(chunkOf(fmt, data, 0)));
    EXPECT_FALSE(rx.offer(chunkOf(fmt, data, 0)));
    EXPECT_EQ(rx.vector()[0], 3.0f);
}

TEST(VectorAssembler, PaddingSegmentsCountTowardCompletion)
{
    // 10 logical floats on a 3-segment wire: segments 1..2 are pure
    // padding but the vector is only complete once they arrive.
    std::vector<float> data(10, 1.0f);
    const WireFormat fmt =
        WireFormat::forVector(10, 3 * 366 * 4, true);
    VectorAssembler rx(fmt);
    EXPECT_FALSE(rx.offer(chunkOf(fmt, data, 0)));
    EXPECT_FALSE(rx.offer(chunkOf(fmt, data, 1)));
    EXPECT_TRUE(rx.offer(chunkOf(fmt, data, 2)));
    EXPECT_EQ(rx.vector(), data);
}

TEST(VectorAssembler, MissingSegmentsReported)
{
    const WireFormat fmt = WireFormat::forVector(0, 4 * 366 * 4, true);
    VectorAssembler rx(fmt);
    std::vector<float> none;
    rx.offer(chunkOf(fmt, none, 1));
    rx.offer(chunkOf(fmt, none, 3));
    EXPECT_EQ(rx.missingSegments(), (std::vector<std::uint64_t>{0, 2}));
}

TEST(VectorAssembler, ResetReArms)
{
    std::vector<float> data(5, 2.0f);
    const WireFormat fmt = WireFormat::forVector(5, 20, true);
    VectorAssembler rx(fmt);
    rx.offer(chunkOf(fmt, data, 0));
    rx.reset();
    EXPECT_FALSE(rx.complete());
    EXPECT_EQ(rx.segmentsReceived(), 0u);
}

TEST(VectorAssembler, SegBaseOffsetsSegments)
{
    std::vector<float> data(5, 2.0f);
    const WireFormat fmt = WireFormat::forVector(5, 20, false);
    VectorAssembler rx(fmt);
    net::ChunkPayload c = chunkOf(fmt, data, 0);
    c.seg = 100; // absolute numbering
    EXPECT_TRUE(rx.offer(c, /*seg_base=*/100));
}

TEST(VectorAssembler, IgnoresForeignSegments)
{
    const WireFormat fmt = WireFormat::forVector(5, 20, true);
    VectorAssembler rx(fmt);
    net::ChunkPayload c;
    c.seg = 99;
    EXPECT_FALSE(rx.offer(c));
    EXPECT_EQ(rx.segmentsReceived(), 0u);
}

TEST(MultiRoundAssembler, IgnoresForeignSegmentsAfterPop)
{
    const WireFormat fmt = WireFormat::forVector(4, 16, true);
    ASSERT_EQ(fmt.segments(), 1u);
    MultiRoundAssembler rx(fmt);
    net::ChunkPayload foreign;
    foreign.seg = 99;
    // Before any round: a foreign index must not open a round.
    EXPECT_FALSE(rx.offer(foreign));
    EXPECT_EQ(rx.pendingRounds(), 0u);

    const std::vector<float> r1(4, 1.0f), r2(4, 2.0f);
    EXPECT_TRUE(rx.offer(chunkOf(fmt, r1, 0)));
    EXPECT_EQ(rx.popFront()[0], 1.0f);
    // After a pop the index has no arrival counter to read: it must be
    // rejected without touching the round bookkeeping.
    EXPECT_FALSE(rx.offer(foreign));
    EXPECT_EQ(rx.pendingRounds(), 0u);
    EXPECT_TRUE(rx.offer(chunkOf(fmt, r2, 0)));
    EXPECT_EQ(rx.popFront()[0], 2.0f);
    EXPECT_EQ(rx.pendingRounds(), 0u);
}

TEST(MultiRoundAssembler, SeparatesInterleavedRounds)
{
    const WireFormat fmt = WireFormat::forVector(732, 732 * 4, true);
    ASSERT_EQ(fmt.segments(), 2u);
    MultiRoundAssembler rx(fmt);
    std::vector<float> r1(732, 1.0f), r2(732, 2.0f);
    // Round 2's segment 0 overtakes round 1's segment 1.
    rx.offer(chunkOf(fmt, r1, 0));
    rx.offer(chunkOf(fmt, r2, 0));
    EXPECT_FALSE(rx.frontComplete());
    rx.offer(chunkOf(fmt, r1, 1));
    ASSERT_TRUE(rx.frontComplete());
    EXPECT_EQ(rx.popFront()[0], 1.0f);
    rx.offer(chunkOf(fmt, r2, 1));
    ASSERT_TRUE(rx.frontComplete());
    EXPECT_EQ(rx.popFront()[0], 2.0f);
    EXPECT_EQ(rx.pendingRounds(), 0u);
}

TEST(MultiRoundAssembler, ManyRoundsDrainFifo)
{
    const WireFormat fmt = WireFormat::forVector(4, 16, true);
    MultiRoundAssembler rx(fmt);
    for (float round = 0; round < 5; ++round) {
        std::vector<float> v(4, round);
        rx.offer(chunkOf(fmt, v, 0));
    }
    for (float round = 0; round < 5; ++round) {
        ASSERT_TRUE(rx.frontComplete());
        EXPECT_EQ(rx.popFront()[0], round);
    }
}

TEST(SendVector, ProducesSegmentedPackets)
{
    sim::Simulation s{1};
    net::Host a{s, "a", net::MacAddr(1), net::Ipv4Addr(10, 0, 0, 1)};
    net::Host b{s, "b", net::MacAddr(2), net::Ipv4Addr(10, 0, 0, 2)};
    net::Link l{s, "l", {}};
    l.connect(&a, 0, &b, 0);

    std::vector<float> data(1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<float>(i);
    const WireFormat fmt = WireFormat::forVector(1000, 1000 * 4, true);

    VectorAssembler rx(fmt);
    bool complete = false;
    std::size_t packets = 0;
    b.setReceiveHandler([&](net::PacketPtr pkt) {
        ++packets;
        EXPECT_EQ(pkt->ip.tos, net::kTosData);
        const auto *c = std::get_if<net::ChunkPayload>(&pkt->payload);
        ASSERT_NE(c, nullptr);
        if (rx.offer(*c))
            complete = true;
    });
    sendVector(a, b.ip(), 9000, 9999, net::kTosData, 0, data, fmt);
    s.run();
    EXPECT_EQ(packets, fmt.segments());
    EXPECT_TRUE(complete);
    EXPECT_EQ(rx.vector(), data);
}

TEST(SendVector, WirePaddingTransmitsFullSize)
{
    sim::Simulation s{1};
    net::Host a{s, "a", net::MacAddr(1), net::Ipv4Addr(10, 0, 0, 1)};
    net::Host b{s, "b", net::MacAddr(2), net::Ipv4Addr(10, 0, 0, 2)};
    net::Link l{s, "l", {}};
    l.connect(&a, 0, &b, 0);

    std::vector<float> tiny(8, 1.0f);
    // 8 logical floats but a 3-segment paper-scale wire footprint.
    const WireFormat fmt = WireFormat::forVector(8, 3 * 366 * 4, true);
    std::size_t packets = 0;
    b.setReceiveHandler([&](net::PacketPtr) { ++packets; });
    sendVector(a, b.ip(), 9000, 9999, net::kTosData, 0, tiny, fmt);
    s.run();
    EXPECT_EQ(packets, 3u);
    // The link carried ~3 full MTU frames, not 8 floats.
    EXPECT_GT(l.bytesCarried(), 3 * 1400u);
}

TEST(VectorAssembler, FirstMissingTracksContiguousPrefix)
{
    const WireFormat fmt = WireFormat::forVector(0, 5 * 366 * 4, true);
    std::vector<float> data;
    VectorAssembler rx(fmt);
    EXPECT_EQ(rx.firstMissing(), 0u);
    rx.offer(chunkOf(fmt, data, 0));
    EXPECT_EQ(rx.firstMissing(), 1u);
    rx.offer(chunkOf(fmt, data, 2)); // gap at 1
    EXPECT_EQ(rx.firstMissing(), 1u);
    rx.offer(chunkOf(fmt, data, 1)); // gap closes: skips past 2
    EXPECT_EQ(rx.firstMissing(), 3u);
    rx.offer(chunkOf(fmt, data, 3));
    rx.offer(chunkOf(fmt, data, 4));
    EXPECT_EQ(rx.firstMissing(), fmt.segments());
    rx.reset();
    EXPECT_EQ(rx.firstMissing(), 0u);
}

TEST(RetxTimer, BackoffClampsAtMaxTimeout)
{
    // Regression: timeout * backoff^n used to overflow TimeNs and
    // schedule the "retry" in the past. The backed-off interval must
    // saturate at max_timeout, exactly from the cap boundary on.
    sim::Simulation sim(1);
    RetransmitPolicy p;
    p.timeout = 10 * sim::kMsec;
    p.backoff = 1000.0;
    p.max_retries = 4;
    p.max_timeout = 50 * sim::kMsec;
    RecoveryStats stats;
    RetxTimer t;
    t.configure(sim, p, stats);
    std::vector<sim::TimeNs> fires;
    t.arm([&]() -> std::size_t {
        fires.push_back(sim.now());
        return 1; // work always remains: drive to the retry cap
    });
    sim.run();
    ASSERT_EQ(fires.size(), 4u);
    EXPECT_EQ(fires[0], 10 * sim::kMsec);
    // 10ms * 1000 would be 10s; every later interval is the cap.
    EXPECT_EQ(fires[1] - fires[0], 50 * sim::kMsec);
    EXPECT_EQ(fires[2] - fires[1], 50 * sim::kMsec);
    EXPECT_EQ(fires[3] - fires[2], 50 * sim::kMsec);
    EXPECT_EQ(stats.gave_up, 1u);
}

TEST(RetxTimer, ExtremeRetryCapStaysMonotonic)
{
    // With the default 300 s cap, 2^n growth over a large retry budget
    // stays finite and strictly monotonic (pre-clamp this wrapped).
    sim::Simulation sim(1);
    RetransmitPolicy p;
    p.timeout = 20 * sim::kMsec;
    p.backoff = 2.0;
    p.max_retries = 80;
    RecoveryStats stats;
    RetxTimer t;
    t.configure(sim, p, stats);
    std::vector<sim::TimeNs> fires;
    t.arm([&]() -> std::size_t {
        fires.push_back(sim.now());
        return 1;
    });
    sim.run();
    ASSERT_EQ(fires.size(), 80u);
    for (std::size_t i = 1; i < fires.size(); ++i) {
        EXPECT_GT(fires[i], fires[i - 1]);
        EXPECT_LE(fires[i] - fires[i - 1], p.max_timeout);
    }
    EXPECT_EQ(stats.gave_up, 1u);
}

} // namespace
} // namespace isw::dist
