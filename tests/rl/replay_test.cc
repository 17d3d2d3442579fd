/** @file Replay buffer tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "rl/replay_buffer.hh"

namespace isw::rl {
namespace {

Transition
t(float tag)
{
    return Transition{{tag}, {0.0f}, tag, {tag}, false};
}

TEST(ReplayBuffer, RejectsZeroCapacity)
{
    EXPECT_THROW(ReplayBuffer(0), std::invalid_argument);
}

TEST(ReplayBuffer, FillsUpToCapacity)
{
    ReplayBuffer buf(3);
    EXPECT_TRUE(buf.empty());
    buf.push(t(1));
    buf.push(t(2));
    EXPECT_EQ(buf.size(), 2u);
    buf.push(t(3));
    buf.push(t(4)); // evicts the oldest
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.capacity(), 3u);
}

TEST(ReplayBuffer, RingOverwritesOldest)
{
    ReplayBuffer buf(2);
    buf.push(t(1));
    buf.push(t(2));
    buf.push(t(3));
    // Slot 0 now holds tag 3.
    EXPECT_FLOAT_EQ(buf.at(0).reward, 3.0f);
    EXPECT_FLOAT_EQ(buf.at(1).reward, 2.0f);
}

TEST(ReplayBuffer, GrowsOnPushInRingOrder)
{
    // Slot i holds the newest of the pushes k with k % capacity == i.
    const std::size_t cap = 5;
    ReplayBuffer buf(cap);
    for (std::size_t pushed = 1; pushed <= 3 * cap + 2; ++pushed) {
        buf.push(t(float(pushed - 1)));
        ASSERT_EQ(buf.size(), std::min(pushed, cap));
        ASSERT_EQ(buf.capacity(), cap);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            const std::size_t newest = (pushed - 1 - i) / cap * cap + i;
            EXPECT_FLOAT_EQ(buf.at(i).reward, float(newest))
                << "slot " << i << " after " << pushed << " pushes";
        }
    }
    EXPECT_THROW(buf.at(cap), std::out_of_range);
}

TEST(ReplayBuffer, SampleOnEmptyThrows)
{
    ReplayBuffer buf(2);
    sim::Rng rng(1);
    std::vector<const Transition *> out;
    EXPECT_THROW(buf.sample(1, rng, out), std::logic_error);
}

TEST(ReplayBuffer, SampleReturnsRequestedCount)
{
    ReplayBuffer buf(4);
    for (int i = 0; i < 4; ++i)
        buf.push(t(float(i)));
    sim::Rng rng(2);
    std::vector<const Transition *> out;
    buf.sample(16, rng, out);
    EXPECT_EQ(out.size(), 16u);
    for (const Transition *tr : out)
        EXPECT_NE(tr, nullptr);
}

TEST(ReplayBuffer, SampleCoversAllEntries)
{
    ReplayBuffer buf(8);
    for (int i = 0; i < 8; ++i)
        buf.push(t(float(i)));
    sim::Rng rng(3);
    std::vector<const Transition *> out;
    std::set<float> seen;
    for (int round = 0; round < 50; ++round) {
        buf.sample(8, rng, out);
        for (const Transition *tr : out)
            seen.insert(tr->reward);
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(ReplayBuffer, SampleOnlyFromFilledRegion)
{
    ReplayBuffer buf(100);
    buf.push(t(7));
    sim::Rng rng(4);
    std::vector<const Transition *> out;
    buf.sample(32, rng, out);
    for (const Transition *tr : out)
        EXPECT_FLOAT_EQ(tr->reward, 7.0f);
}

} // namespace
} // namespace isw::rl
