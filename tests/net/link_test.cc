/** @file Unit tests for link serialization/propagation/loss modeling. */

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/host.hh"
#include "net/link.hh"
#include "sim/simulation.hh"

namespace isw::net {
namespace {

struct LinkFixture : ::testing::Test
{
    sim::Simulation s{1};
    Host a{s, "a", MacAddr(1), Ipv4Addr(10, 0, 0, 1)};
    Host b{s, "b", MacAddr(2), Ipv4Addr(10, 0, 0, 2)};

    PacketPtr
    raw(std::uint32_t bytes, std::uint64_t tag = 0)
    {
        Packet p;
        p.ip.src = a.ip();
        p.ip.dst = b.ip();
        p.payload = RawPayload{bytes, tag};
        return makePacket(std::move(p));
    }
};

/** One delivery as observed: (time, receiving node, frame tag). */
using Arrival = std::tuple<sim::TimeNs, std::string, std::uint64_t>;

std::uint64_t
tagOf(const PacketPtr &pkt)
{
    return std::get<RawPayload>(pkt->payload).tag;
}

/** Channel model with a fixed verdict per frame tag (others pass). */
struct TagChannel : ChannelModel
{
    std::map<std::uint64_t, ChannelVerdict> verdicts;

    ChannelVerdict
    onFrame(const Link &, const PacketPtr &pkt) override
    {
        const auto it = verdicts.find(tagOf(pkt));
        return it != verdicts.end() ? it->second : ChannelVerdict{};
    }
};

TEST_F(LinkFixture, TxTimeMatchesBandwidth)
{
    Link l(s, "l", LinkConfig{10e9, 0, 0.0});
    // 1250 bytes at 10 Gb/s = 1 microsecond.
    EXPECT_EQ(l.txTime(1250), 1000u);
}

TEST_F(LinkFixture, DeliversAfterSerializationPlusPropagation)
{
    Link l(s, "l", LinkConfig{10e9, 500, 0.0});
    l.connect(&a, 0, &b, 0);
    sim::TimeNs arrival = 0;
    b.setReceiveHandler([&](PacketPtr) { arrival = s.now(); });
    PacketPtr p = raw(1250 - 66); // wire = 1250 bytes with headers
    a.send(p);
    s.run();
    EXPECT_EQ(arrival, l.txTime(p->wireBytes()) + 500);
}

TEST_F(LinkFixture, BackToBackFramesQueue)
{
    Link l(s, "l", LinkConfig{10e9, 0, 0.0});
    l.connect(&a, 0, &b, 0);
    std::vector<sim::TimeNs> arrivals;
    b.setReceiveHandler([&](PacketPtr) { arrivals.push_back(s.now()); });
    PacketPtr p = raw(934); // wire = 1000 bytes
    a.send(p);
    a.send(p);
    a.send(p);
    s.run();
    ASSERT_EQ(arrivals.size(), 3u);
    const sim::TimeNs t1 = l.txTime(1000);
    EXPECT_EQ(arrivals[0], t1);
    EXPECT_EQ(arrivals[1], 2 * t1);
    EXPECT_EQ(arrivals[2], 3 * t1);
}

TEST_F(LinkFixture, FullDuplexDirectionsDontInterfere)
{
    Link l(s, "l", LinkConfig{10e9, 0, 0.0});
    l.connect(&a, 0, &b, 0);
    sim::TimeNs at_a = 0, at_b = 0;
    a.setReceiveHandler([&](PacketPtr) { at_a = s.now(); });
    b.setReceiveHandler([&](PacketPtr) { at_b = s.now(); });
    a.send(raw(934));
    b.send(raw(934));
    s.run();
    // Both arrive at one serialization time: no shared pipe.
    EXPECT_EQ(at_a, at_b);
    EXPECT_EQ(at_a, l.txTime(1000));
}

TEST_F(LinkFixture, LossDropsFramesButConsumesPipe)
{
    Link l(s, "l", LinkConfig{10e9, 0, 1.0}); // always drop
    l.connect(&a, 0, &b, 0);
    int received = 0;
    b.setReceiveHandler([&](PacketPtr) { ++received; });
    a.send(raw(100));
    s.run();
    EXPECT_EQ(received, 0);
    EXPECT_EQ(l.dropped(), 1u);
    EXPECT_EQ(l.delivered(), 0u);
}

TEST_F(LinkFixture, LossRateApproximatesProbability)
{
    Link l(s, "l", LinkConfig{100e9, 0, 0.2});
    l.connect(&a, 0, &b, 0);
    int received = 0;
    b.setReceiveHandler([&](PacketPtr) { ++received; });
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        a.send(raw(34));
    s.run();
    EXPECT_NEAR(received, n * 0.8, n * 0.05);
    EXPECT_EQ(l.dropped() + l.delivered(), static_cast<std::uint64_t>(n));
}

TEST_F(LinkFixture, BytesCarriedAccumulates)
{
    Link l(s, "l", LinkConfig{10e9, 0, 0.0});
    l.connect(&a, 0, &b, 0);
    b.setReceiveHandler([](PacketPtr) {});
    PacketPtr p = raw(100);
    a.send(p);
    a.send(p);
    s.run();
    EXPECT_EQ(l.bytesCarried(), 2 * p->wireBytes());
}

TEST_F(LinkFixture, DoubleConnectThrows)
{
    Link l(s, "l", {});
    l.connect(&a, 0, &b, 0);
    Host c{s, "c", MacAddr(3), Ipv4Addr(10, 0, 0, 3)};
    Host d{s, "d", MacAddr(4), Ipv4Addr(10, 0, 0, 4)};
    EXPECT_THROW(l.connect(&c, 0, &d, 0), std::logic_error);
}

TEST_F(LinkFixture, TransmitFromStrangerThrows)
{
    Link l(s, "l", {});
    l.connect(&a, 0, &b, 0);
    Host c{s, "c", MacAddr(3), Ipv4Addr(10, 0, 0, 3)};
    EXPECT_THROW(l.transmit(&c, raw(10)), std::logic_error);
}

TEST_F(LinkFixture, PeerOfReturnsOtherEnd)
{
    Link l(s, "l", {});
    l.connect(&a, 0, &b, 0);
    EXPECT_EQ(l.peerOf(&a), &b);
    EXPECT_EQ(l.peerOf(&b), &a);
}

TEST_F(LinkFixture, ZeroBandwidthRejected)
{
    EXPECT_THROW(Link(s, "bad", LinkConfig{0.0, 0, 0.0}),
                 std::invalid_argument);
}

TEST_F(LinkFixture, HostSendToStampsHeaders)
{
    Link l(s, "l", {});
    l.connect(&a, 0, &b, 0);
    PacketPtr got;
    b.setReceiveHandler([&](PacketPtr p) { got = std::move(p); });
    a.sendTo(b.ip(), 99, 42, kTosData, RawPayload{10, 0});
    s.run();
    ASSERT_TRUE(got);
    EXPECT_EQ(got->ip.src, a.ip());
    EXPECT_EQ(got->ip.dst, b.ip());
    EXPECT_EQ(got->udp.dst_port, 99);
    EXPECT_EQ(got->udp.src_port, 42);
    EXPECT_EQ(got->ip.tos, kTosData);
    EXPECT_EQ(got->eth.src, a.mac());
}

TEST_F(LinkFixture, SameNanosecondArrivalsFromTwoLinksKeepTransmitOrder)
{
    // a -> c and b -> c. With 1000-byte frames (800 ns at 10 Gb/s), a's
    // second frame and b's first both land at 2100 ns; a sent first, so
    // a's frame must be delivered first even though it sat behind a's
    // first frame in flight. Likewise b's second frame, sent before a's
    // third, lands with it at 2900 ns and goes first.
    Host c{s, "c", MacAddr(3), Ipv4Addr(10, 0, 0, 3), 2};
    Link ac(s, "ac", LinkConfig{10e9, 500, 0.0});
    Link bc(s, "bc", LinkConfig{10e9, 1300, 0.0});
    ac.connect(&a, 0, &c, 0);
    bc.connect(&b, 0, &c, 1);
    std::vector<Arrival> log;
    c.setReceiveHandler([&](PacketPtr p) {
        log.emplace_back(s.now(), "c", tagOf(p));
    });
    a.send(raw(934, 1));  // lands 1300
    a.send(raw(934, 2));  // lands 2100
    b.send(raw(934, 11)); // lands 2100
    b.send(raw(934, 12)); // lands 2900
    a.send(raw(934, 3));  // lands 2900
    s.run();
    const std::vector<Arrival> want{
        {1300, "c", 1}, {2100, "c", 2}, {2100, "c", 11},
        {2900, "c", 12}, {2900, "c", 3},
    };
    EXPECT_EQ(log, want);
}

TEST_F(LinkFixture, DelayedAndDuplicatedFramesInterleaveInTransmitOrder)
{
    // a sends frames 0..5 back to back: 800 ns each, 500 ns propagation,
    // so undelayed frame i lands at 800 * (i + 1) + 500. The channel
    // delays frame 1 by 1600 ns (to 3700, with frame 3) and duplicates
    // frame 4 with the copy 800 ns late (to 5300, with frame 5). On
    // frame 0, b answers with a 2375-byte frame (1900 ns), which lands
    // at a also at 3700. Ties run in transmit order: frame 1 and frame 3
    // were sent at 0, the answer at 1300; frame 4's copy before frame 5.
    Link l(s, "l", LinkConfig{10e9, 500, 0.0});
    l.connect(&a, 0, &b, 0);
    TagChannel channel;
    channel.verdicts[1].delay = 1600;
    channel.verdicts[4].duplicate = true;
    channel.verdicts[4].dup_delay = 800;
    l.setChannel(&channel);
    std::vector<Arrival> log;
    a.setReceiveHandler([&](PacketPtr p) {
        log.emplace_back(s.now(), "a", tagOf(p));
    });
    b.setReceiveHandler([&](PacketPtr p) {
        log.emplace_back(s.now(), "b", tagOf(p));
        if (tagOf(p) == 0)
            b.send(raw(2375 - 66, 100));
    });
    for (std::uint64_t tag = 0; tag < 6; ++tag)
        a.send(raw(934, tag));
    s.run();
    const std::vector<Arrival> want{
        {1300, "b", 0}, {2900, "b", 2}, {3700, "b", 1}, {3700, "b", 3},
        {3700, "a", 100}, {4500, "b", 4}, {5300, "b", 4}, {5300, "b", 5},
    };
    EXPECT_EQ(log, want);
    EXPECT_EQ(l.delivered(), 8u);
}

} // namespace
} // namespace isw::net
