/** @file Primary->backup replication engine (DESIGN.md §16): frame
 *  word packing, per-harvest vs batched-lazy state streaming, the
 *  appended contributor set, and the always-immediate result path. */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <variant>
#include <vector>

#include "core/accelerator.hh"
#include "core/replication.hh"

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

TEST(Replication, FrameWordsRoundTrip)
{
    const std::uint64_t st = packReplState(7, 1234);
    EXPECT_EQ(st & kReplResultBit, 0u); // state: bit 63 clear
    EXPECT_EQ(replContributors(st), 7u);
    EXPECT_EQ(replCount(st), 1234u);

    const std::uint64_t rs = packReplResult(99, 4);
    EXPECT_NE(rs & kReplResultBit, 0u); // result: bit 63 set
    EXPECT_EQ(replResultSeq(rs), 99u);
    EXPECT_EQ(replCount(rs), 4u);

    const std::uint64_t mv = packReplMember(0x0A00FD01u, 0x1234u);
    EXPECT_EQ(replMemberIp(mv), 0x0A00FD01u);
    EXPECT_EQ(replMemberJoinValue(mv), 0x1234u);
}

struct ReplFixture : ::testing::Test
{
    sim::Simulation s{1};
    Accelerator accel{s};
    std::vector<net::Payload> sent;

    ReplicatedAccelerator
    makeRepl(ReplicationMode mode, sim::TimeNs window = 2 * sim::kMsec)
    {
        return ReplicatedAccelerator(
            s, accel, ReplicationConfig{mode, window},
            [this](net::Payload p) { sent.push_back(std::move(p)); });
    }
};

TEST_F(ReplFixture, PerHarvestStreamsEveryAcceptWithContributorSet)
{
    accel.setThreshold(3);
    // The HA datapath always runs with contributor dedupe on: the
    // replicated set is what makes post-failover retransmissions fold
    // in exactly once.
    accel.setDedupe(true);
    ReplicatedAccelerator repl = makeRepl(ReplicationMode::kPerHarvest);
    accel.setAccept([&](std::uint64_t key) { repl.onAccept(key); });
    accel.ingest(chunk(0, {1.0f, 2.0f}), 0xA1);
    accel.ingest(chunk(0, {3.0f, 4.0f}), 0xA2);
    s.run();
    ASSERT_EQ(sent.size(), 2u); // one state frame per accept
    const auto &ch = std::get<net::ChunkPayload>(sent[1]);
    EXPECT_EQ(replContributors(ch.transfer_id), 2u);
    EXPECT_EQ(replCount(ch.transfer_id), 2u);
    // Accumulator words first, then the contributor IPs bit-cast into
    // float slots (replace semantics need the complete set).
    ASSERT_EQ(ch.values.size(), 4u);
    EXPECT_FLOAT_EQ(ch.values[0], 4.0f);
    EXPECT_FLOAT_EQ(ch.values[1], 6.0f);
    const std::set<std::uint32_t> contribs{
        std::bit_cast<std::uint32_t>(ch.values[2]),
        std::bit_cast<std::uint32_t>(ch.values[3])};
    EXPECT_TRUE(contribs.count(0xA1u));
    EXPECT_TRUE(contribs.count(0xA2u));
    EXPECT_EQ(repl.stats().state_frames, 2u);
}

TEST_F(ReplFixture, BatchedLazyCoalescesDirtyStateUntilTheWindowExpires)
{
    accel.setThreshold(3);
    ReplicatedAccelerator repl =
        makeRepl(ReplicationMode::kBatchedLazy, 1 * sim::kMsec);
    accel.setAccept([&](std::uint64_t key) { repl.onAccept(key); });
    accel.ingest(chunk(0, {1.0f}), 0xA1);
    accel.ingest(chunk(0, {2.0f}), 0xA2);
    s.run();
    EXPECT_TRUE(sent.empty()); // dirty, not yet due
    s.at(2 * sim::kMsec, [&] { repl.pump(); });
    s.run();
    ASSERT_EQ(sent.size(), 1u); // both accepts coalesced into one flush
    const auto &ch = std::get<net::ChunkPayload>(sent[0]);
    EXPECT_EQ(replCount(ch.transfer_id), 2u);
    EXPECT_EQ(repl.stats().state_frames, 1u);
}

TEST_F(ReplFixture, ResultsReplicateImmediatelyEvenInLazyMode)
{
    ReplicatedAccelerator repl =
        makeRepl(ReplicationMode::kBatchedLazy, 1 * sim::kMsec);
    repl.onResult(/*key=*/0, {10.0f}, /*wire_floats=*/1, /*count=*/3,
                  /*seq=*/1, net::Precision::kFp32, /*qexp=*/0);
    ASSERT_EQ(sent.size(), 1u); // no window wait: correctness floor
    const auto &ch = std::get<net::ChunkPayload>(sent[0]);
    EXPECT_NE(ch.transfer_id & kReplResultBit, 0u);
    EXPECT_EQ(replResultSeq(ch.transfer_id), 1u);
    EXPECT_EQ(replCount(ch.transfer_id), 3u);
    EXPECT_EQ(repl.stats().result_frames, 1u);
    EXPECT_EQ(repl.stats().state_frames, 0u);
}

TEST_F(ReplFixture, CompletedSegmentsDropOutOfTheDirtySet)
{
    accel.setThreshold(2);
    ReplicatedAccelerator repl =
        makeRepl(ReplicationMode::kBatchedLazy, 1 * sim::kMsec);
    accel.setAccept([&](std::uint64_t key) { repl.onAccept(key); });
    accel.setEmit([](std::uint64_t, SegState) {});
    accel.ingest(chunk(0, {1.0f}), 0xA1);
    accel.ingest(chunk(0, {2.0f}), 0xA2); // completes: pool slot harvested
    s.run();
    s.at(2 * sim::kMsec, [&] { repl.pump(); });
    s.run();
    // The dirty key's slot is gone by flush time; nothing is sent.
    EXPECT_TRUE(sent.empty());
    EXPECT_EQ(repl.stats().state_frames, 0u);
}

} // namespace
} // namespace isw::core
