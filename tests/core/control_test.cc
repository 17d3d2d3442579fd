/** @file Unit tests for the control plane (Table 2 semantics). */

#include <gtest/gtest.h>

#include "core/control.hh"

namespace isw::core {
namespace {

using net::Action;
using net::ControlPayload;
using net::Ipv4Addr;

TEST(MembershipTable, JoinAssignsStableIds)
{
    MembershipTable t;
    const auto id0 = t.join(Ipv4Addr(10, 0, 0, 2), 99, MemberType::kWorker);
    const auto id1 = t.join(Ipv4Addr(10, 0, 0, 3), 99, MemberType::kWorker);
    EXPECT_NE(id0, id1);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.find(Ipv4Addr(10, 0, 0, 2))->id, id0);
}

TEST(MembershipTable, RejoinIsIdempotent)
{
    MembershipTable t;
    const auto id = t.join(Ipv4Addr(1, 1, 1, 1), 10, MemberType::kWorker);
    const auto id2 = t.join(Ipv4Addr(1, 1, 1, 1), 20, MemberType::kSwitch);
    EXPECT_EQ(id, id2);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.find(Ipv4Addr(1, 1, 1, 1))->udp_port, 20);
    EXPECT_EQ(t.find(Ipv4Addr(1, 1, 1, 1))->type, MemberType::kSwitch);
}

TEST(MembershipTable, LeaveRemoves)
{
    MembershipTable t;
    t.join(Ipv4Addr(1, 1, 1, 1), 10, MemberType::kWorker);
    EXPECT_TRUE(t.leave(Ipv4Addr(1, 1, 1, 1)));
    EXPECT_FALSE(t.leave(Ipv4Addr(1, 1, 1, 1)));
    EXPECT_TRUE(t.empty());
}

TEST(MembershipTable, MembersInIdOrder)
{
    MembershipTable t;
    t.join(Ipv4Addr(3, 3, 3, 3), 1, MemberType::kWorker);
    t.join(Ipv4Addr(1, 1, 1, 1), 1, MemberType::kWorker);
    const auto members = t.members();
    ASSERT_EQ(members.size(), 2u);
    EXPECT_LT(members[0].id, members[1].id);
    EXPECT_EQ(members[0].ip, Ipv4Addr(3, 3, 3, 3));
}

TEST(JoinValue, PacksPortAndType)
{
    const auto v = encodeJoinValue(9999, MemberType::kSwitch);
    EXPECT_EQ(joinValuePort(v), 9999);
    EXPECT_EQ(joinValueType(v), MemberType::kSwitch);
    const auto w = encodeJoinValue(80, MemberType::kWorker);
    EXPECT_EQ(joinValueType(w), MemberType::kWorker);
}

TEST(HelpValue, PacksSeqAndSeg)
{
    const auto v = helpValue(7, 123456);
    EXPECT_EQ(helpSeq(v), 7u);
    EXPECT_EQ(helpSeg(v), 123456u);
}

struct ControlFixture : ::testing::Test
{
    std::vector<std::pair<Ipv4Addr, ControlPayload>> sent;
    int resets = 0;
    std::uint32_t threshold = 0;
    std::vector<std::uint64_t> forced;
    std::vector<std::uint64_t> cleared;
    bool cache_hit = false;
    int membership_changes = 0;
    std::vector<Member> left;

    ControlPlane plane{ControlPlane::Hooks{
        .send_control =
            [this](const Member &m, ControlPayload msg) {
                sent.emplace_back(m.ip, msg);
            },
        .reset_accel = [this] { ++resets; },
        .set_threshold = [this](std::uint32_t h,
                                std::uint8_t) { threshold = h; },
        .force_broadcast =
            [this](std::uint64_t seg) { forced.push_back(seg); },
        .resend_cached =
            [this](std::uint64_t req, const Member &) {
                (void)req;
                return cache_hit;
            },
        .clear_segment =
            [this](std::uint64_t seg) { cleared.push_back(seg); },
        .membership_changed = [this] { ++membership_changes; },
        .member_left = [this](const Member &m) { left.push_back(m); },
    }};

    ControlPayload
    msg(Action a, std::uint64_t value, bool has = true)
    {
        return ControlPayload{a, value, has};
    }
};

TEST_F(ControlFixture, JoinAddsMemberAndAcks)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin,
                     encodeJoinValue(9999, MemberType::kWorker)));
    EXPECT_EQ(plane.table().size(), 1u);
    EXPECT_EQ(plane.table().find(Ipv4Addr(10, 0, 0, 2))->udp_port, 9999);
    EXPECT_EQ(membership_changes, 1);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].second.action, Action::kAck);
    EXPECT_EQ(sent[0].second.value, 1u);
}

TEST_F(ControlFixture, JoinWithoutValueUsesSourcePort)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 1234,
                 msg(Action::kJoin, 0, /*has=*/false));
    EXPECT_EQ(plane.table().find(Ipv4Addr(10, 0, 0, 2))->udp_port, 1234);
}

TEST_F(ControlFixture, LeaveOfUnknownAcksFailure)
{
    plane.handle(Ipv4Addr(9, 9, 9, 9), 50, msg(Action::kLeave, 0, false));
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].second.value, 0u);
    EXPECT_EQ(membership_changes, 0);
}

TEST_F(ControlFixture, LeaveRemovesMemberAndRecomputesMembership)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    plane.handle(Ipv4Addr(10, 0, 0, 3), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    sent.clear();
    ASSERT_EQ(membership_changes, 2);

    plane.handle(Ipv4Addr(10, 0, 0, 2), 50, msg(Action::kLeave, 0, false));
    EXPECT_EQ(plane.table().size(), 1u);
    EXPECT_FALSE(plane.table().find(Ipv4Addr(10, 0, 0, 2)).has_value());
    // Departure triggers the same membership hook a Join does (the
    // switch recomputes its auto threshold from the new count).
    EXPECT_EQ(membership_changes, 3);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].second.action, Action::kAck);
    EXPECT_EQ(sent[0].second.value, 1u);
}

TEST_F(ControlFixture, LeaveThenRejoinAssignsAFreshId)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    const auto id0 = plane.table().find(Ipv4Addr(10, 0, 0, 2))->id;
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50, msg(Action::kLeave, 0, false));
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    EXPECT_EQ(plane.table().size(), 1u);
    EXPECT_NE(plane.table().find(Ipv4Addr(10, 0, 0, 2))->id, id0);
}

TEST_F(ControlFixture, ResetInvokesHook)
{
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50, msg(Action::kReset, 0, false));
    EXPECT_EQ(resets, 1);
}

TEST_F(ControlFixture, SetHSetsThreshold)
{
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50, msg(Action::kSetH, 7));
    EXPECT_EQ(threshold, 7u);
    EXPECT_EQ(sent.back().second.value, 1u);
}

TEST_F(ControlFixture, SetHWithoutValueFails)
{
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50, msg(Action::kSetH, 0, false));
    EXPECT_EQ(threshold, 0u);
    EXPECT_EQ(sent.back().second.value, 0u);
}

TEST_F(ControlFixture, FBcastForcesSegment)
{
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50, msg(Action::kFBcast, 13));
    ASSERT_EQ(forced.size(), 1u);
    EXPECT_EQ(forced[0], 13u);
}

TEST_F(ControlFixture, HelpServedFromCacheSendsNothingElse)
{
    cache_hit = true;
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50,
                 msg(Action::kHelp, helpValue(1, 5)));
    EXPECT_TRUE(sent.empty());
    EXPECT_TRUE(cleared.empty());
}

TEST_F(ControlFixture, HelpMissRelaysRetransmitToWorkers)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    plane.handle(Ipv4Addr(10, 0, 0, 3), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    sent.clear();
    cache_hit = false;
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kHelp, helpValue(2, 9)));
    ASSERT_EQ(cleared.size(), 1u);
    EXPECT_EQ(cleared[0], 9u);
    ASSERT_EQ(sent.size(), 2u); // relayed to both workers
    EXPECT_EQ(sent[0].second.action, Action::kHelp);
    EXPECT_EQ(helpSeg(sent[0].second.value), 9u);
}

TEST_F(ControlFixture, HaltNotifiesAllMembersAndSetsFlag)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin, encodeJoinValue(1, MemberType::kWorker)));
    sent.clear();
    plane.handle(Ipv4Addr(10, 0, 0, 3), 50, msg(Action::kHalt, 0, false));
    EXPECT_TRUE(plane.halted());
    // One Halt to the member plus one Ack to the requester.
    ASSERT_EQ(sent.size(), 2u);
    EXPECT_EQ(sent[0].second.action, Action::kHalt);
    EXPECT_EQ(sent[1].second.action, Action::kAck);
}

TEST_F(ControlFixture, JoinClearsHaltedState)
{
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50, msg(Action::kHalt, 0, false));
    EXPECT_TRUE(plane.halted());
    plane.handle(Ipv4Addr(1, 1, 1, 2), 50, msg(Action::kJoin, 0, false));
    EXPECT_FALSE(plane.halted());
}

TEST_F(ControlFixture, AckIsTerminal)
{
    plane.handle(Ipv4Addr(1, 1, 1, 1), 50, msg(Action::kAck, 1));
    EXPECT_TRUE(sent.empty());
}

TEST_F(ControlFixture, DuplicateJoinIsIdempotent)
{
    // A retransmitted Join (same ip/port/type/job) must be Acked but
    // must NOT fire a spurious membership recompute: mid-round, a
    // recompute would re-derive the aggregation threshold and could
    // tear down in-flight per-job partial sums.
    const auto join = msg(Action::kJoin,
                          encodeJoinValue(9999, MemberType::kWorker));
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50, join);
    EXPECT_EQ(membership_changes, 1);
    ASSERT_EQ(sent.size(), 1u);

    plane.handle(Ipv4Addr(10, 0, 0, 2), 50, join);
    EXPECT_EQ(plane.table().size(), 1u);
    EXPECT_EQ(membership_changes, 1); // no spurious recompute
    ASSERT_EQ(sent.size(), 2u);       // still Acked (sender unblocks)
    EXPECT_EQ(sent[1].second.action, Action::kAck);
    EXPECT_EQ(sent[1].second.value, 1u);

    // A Join that actually changes the row (new port) does recompute.
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin,
                     encodeJoinValue(8888, MemberType::kWorker)));
    EXPECT_EQ(membership_changes, 2);
}

TEST(JoinValue, PacksJobId)
{
    const auto v = encodeJoinValue(9999, MemberType::kWorker, 7);
    EXPECT_EQ(joinValuePort(v), 9999);
    EXPECT_EQ(joinValueType(v), MemberType::kWorker);
    EXPECT_EQ(joinValueJob(v), 7);
    // Default job is 0 — the legacy encoding is unchanged.
    EXPECT_EQ(joinValueJob(encodeJoinValue(9999, MemberType::kWorker)), 0);
}

TEST_F(ControlFixture, JoinCarriesJobTag)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin,
                     encodeJoinValue(9999, MemberType::kWorker, 3)));
    ASSERT_TRUE(plane.table().find(Ipv4Addr(10, 0, 0, 2)).has_value());
    EXPECT_EQ(plane.table().find(Ipv4Addr(10, 0, 0, 2))->job, 3);
}

TEST_F(ControlFixture, LeaveReportsTheDepartedMember)
{
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50,
                 msg(Action::kJoin,
                     encodeJoinValue(9999, MemberType::kWorker, 2)));
    plane.handle(Ipv4Addr(10, 0, 0, 2), 50, msg(Action::kLeave, 0, false));
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(left[0].ip, Ipv4Addr(10, 0, 0, 2));
    EXPECT_EQ(left[0].job, 2);
    // Unknown-member Leave must not fire the hook.
    plane.handle(Ipv4Addr(9, 9, 9, 9), 50, msg(Action::kLeave, 0, false));
    EXPECT_EQ(left.size(), 1u);
}

} // namespace
} // namespace isw::core
