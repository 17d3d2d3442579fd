/** @file Unit tests for the packet/float-buffer recycling pool. */

#include <gtest/gtest.h>

#include "net/packet.hh"
#include "net/packet_pool.hh"

namespace isw::net {
namespace {

Packet
chunkPacket(std::vector<float> vals)
{
    Packet pkt;
    pkt.ip.tos = kTosData;
    ChunkPayload chunk;
    chunk.seg = 1;
    chunk.wire_floats = static_cast<std::uint32_t>(vals.size());
    chunk.values = std::move(vals);
    pkt.payload = std::move(chunk);
    return pkt;
}

TEST(PacketPool, SealedPacketCarriesPayload)
{
    PacketPtr p = makePacket(chunkPacket({1, 2, 3}));
    const auto &chunk = std::get<ChunkPayload>(p->payload);
    EXPECT_EQ(chunk.values, (std::vector<float>{1, 2, 3}));
    EXPECT_EQ(chunk.wire_floats, 3u);
}

TEST(PacketPool, RecyclesPacketSlotAfterRelease)
{
    PacketPool &pool = PacketPool::local();
    pool.trim();
    const Packet *raw;
    {
        PacketPtr p = pool.seal(chunkPacket({1}));
        raw = p.get();
    }
    // The slot was parked; the next seal must reuse the same object.
    EXPECT_GE(pool.idleSlots(), 1u);
    PacketPtr q = pool.seal(chunkPacket({2}));
    EXPECT_EQ(q.get(), raw);
    EXPECT_FLOAT_EQ(std::get<ChunkPayload>(q->payload).values[0], 2.0f);
}

TEST(PacketPool, SalvagesFloatBufferFromDeadChunk)
{
    PacketPool &pool = PacketPool::local();
    pool.trim();
    { PacketPtr p = pool.seal(chunkPacket({1, 2, 3, 4})); }
    EXPECT_GE(pool.idleFloatBuffers(), 1u);
    std::vector<float> buf = pool.acquireFloats(4);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 4u);
}

TEST(PacketPool, AcquireFloatsReservesHint)
{
    PacketPool &pool = PacketPool::local();
    std::vector<float> buf = pool.acquireFloats(123);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 123u);
}

TEST(PacketPool, ZeroSizeAcquireTakesAndCountsNothing)
{
    // Value-less segments must neither strand a parked buffer in a
    // frame that never uses it nor read as pool misses.
    PacketPool pool;
    pool.releaseFloats(pool.acquireFloats(8));
    ASSERT_EQ(pool.idleFloatBuffers(), 1u);
    const PacketPool::Stats s0 = pool.stats();
    const std::vector<float> buf = pool.acquireFloats(0);
    EXPECT_EQ(buf.capacity(), 0u);
    EXPECT_EQ(pool.idleFloatBuffers(), 1u);
    EXPECT_EQ(pool.stats().float_allocs, s0.float_allocs);
    EXPECT_EQ(pool.stats().float_reuses, s0.float_reuses);
}

TEST(PacketPool, StatsCountSealsAndReuses)
{
    PacketPool &pool = PacketPool::local();
    pool.trim();
    const auto before = pool.stats();
    { PacketPtr p = pool.seal(chunkPacket({1})); }
    { PacketPtr p = pool.seal(chunkPacket({2})); }
    const auto after = pool.stats();
    EXPECT_EQ(after.sealed - before.sealed, 2u);
    // First seal on a trimmed pool allocates; the second reuses.
    EXPECT_GE(after.packet_allocs, before.packet_allocs + 1);
    EXPECT_GE(after.packet_reuses, before.packet_reuses + 1);
}

TEST(PacketPool, ControlAndRawPacketsRecycleToo)
{
    PacketPool &pool = PacketPool::local();
    pool.trim();
    {
        Packet pkt;
        pkt.payload = ControlPayload{Action::kJoin, 0, false};
        PacketPtr p = pool.seal(std::move(pkt));
    }
    EXPECT_EQ(pool.idleSlots(), 1u);
    {
        Packet pkt;
        pkt.payload = RawPayload{64, 9};
        PacketPtr p = pool.seal(std::move(pkt));
        EXPECT_EQ(std::get<RawPayload>(p->payload).bytes, 64u);
    }
    EXPECT_EQ(pool.idleSlots(), 1u);
}

TEST(PacketPool, SharedOwnershipDelaysRecycle)
{
    PacketPool &pool = PacketPool::local();
    pool.trim();
    PacketPtr a = pool.seal(chunkPacket({1}));
    PacketPtr b = a; // broadcast-style fan-out
    a.reset();
    EXPECT_EQ(pool.idleSlots(), 0u);
    b.reset();
    EXPECT_EQ(pool.idleSlots(), 1u);
}

} // namespace
} // namespace isw::net
