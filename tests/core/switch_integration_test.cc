/**
 * @file Integration tests for the programmable switch: end-to-end
 * aggregation over a simulated network, control handshakes,
 * hierarchical aggregation, and Help-based recovery.
 */

#include <gtest/gtest.h>

#include "core/programmable_switch.hh"
#include "net/packet_pool.hh"
#include "net/topology.hh"

namespace isw::core {
namespace {

using net::Action;
using net::ChunkPayload;
using net::ControlPayload;
using net::Ipv4Addr;
using net::PacketPtr;

constexpr std::uint16_t kSwPort = 9000;
constexpr std::uint16_t kWkPort = 9999;

ChunkPayload
chunk(std::uint64_t seg, std::vector<float> vals)
{
    ChunkPayload c;
    c.seg = seg;
    c.wire_floats = static_cast<std::uint32_t>(vals.size());
    c.values = std::move(vals);
    return c;
}

struct StarFixture : ::testing::Test
{
    sim::Simulation s{1};
    net::Topology topo{s};
    ProgrammableSwitch *sw = nullptr;
    std::vector<net::Host *> hosts;
    /** Results seen per host: (seg -> values). */
    std::vector<std::map<std::uint64_t, std::vector<float>>> results;
    std::vector<std::vector<ControlPayload>> controls;

    void
    SetUp() override
    {
        ProgrammableSwitchConfig cfg;
        cfg.ip = Ipv4Addr(10, 0, 0, 1);
        sw = topo.addSwitch<ProgrammableSwitch>("sw0", 4, cfg);
        results.resize(3);
        controls.resize(3);
        for (int i = 0; i < 3; ++i) {
            net::Host *h = topo.addHost(
                "w" + std::to_string(i),
                Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(2 + i)));
            topo.connectHost(h, sw, static_cast<std::size_t>(i));
            const std::size_t idx = static_cast<std::size_t>(i);
            h->setReceiveHandler([this, idx](PacketPtr pkt) {
                if (const auto *c =
                        std::get_if<ChunkPayload>(&pkt->payload)) {
                    if (pkt->ip.tos == net::kTosResult)
                        results[idx][c->seg] = c->values;
                } else if (const auto *ctl = std::get_if<ControlPayload>(
                               &pkt->payload)) {
                    controls[idx].push_back(*ctl);
                }
            });
            hosts.push_back(h);
        }
    }

    void
    sendData(std::size_t worker, ChunkPayload c)
    {
        hosts[worker]->sendTo(sw->ip(), kSwPort, kWkPort, net::kTosData,
                              std::move(c));
    }

    void
    sendControl(std::size_t worker, ControlPayload c)
    {
        hosts[worker]->sendTo(sw->ip(), kSwPort, kWkPort, net::kTosControl,
                              std::move(c));
    }

    void
    joinAll()
    {
        for (std::size_t i = 0; i < hosts.size(); ++i) {
            sendControl(i, ControlPayload{Action::kJoin,
                                          encodeJoinValue(
                                              kWkPort, MemberType::kWorker),
                                          true});
        }
        s.run();
        for (auto &c : controls)
            c.clear();
    }
};

TEST_F(StarFixture, JoinHandshakeAcksAndRegisters)
{
    sendControl(0, ControlPayload{Action::kJoin,
                                  encodeJoinValue(kWkPort,
                                                  MemberType::kWorker),
                                  true});
    s.run();
    EXPECT_EQ(sw->controlPlane().table().size(), 1u);
    ASSERT_EQ(controls[0].size(), 1u);
    EXPECT_EQ(controls[0][0].action, Action::kAck);
    EXPECT_EQ(controls[0][0].value, 1u);
}

TEST_F(StarFixture, AggregatesAndBroadcastsToAllMembers)
{
    joinAll();
    sendData(0, chunk(0, {1.0f, 10.0f}));
    sendData(1, chunk(0, {2.0f, 20.0f}));
    sendData(2, chunk(0, {3.0f, 30.0f}));
    s.run();
    for (std::size_t w = 0; w < 3; ++w) {
        ASSERT_EQ(results[w].count(0), 1u) << "worker " << w;
        EXPECT_FLOAT_EQ(results[w][0][0], 6.0f);
        EXPECT_FLOAT_EQ(results[w][0][1], 60.0f);
    }
}

TEST_F(StarFixture, ThresholdTracksMembership)
{
    joinAll();
    EXPECT_EQ(sw->accelerator().threshold(), 3u);
    sendControl(0, ControlPayload{Action::kLeave, 0, false});
    s.run();
    EXPECT_EQ(sw->accelerator().threshold(), 2u);
}

TEST_F(StarFixture, SetHOverridesAutoThreshold)
{
    joinAll();
    sendControl(0, ControlPayload{Action::kSetH, 2, true});
    s.run();
    EXPECT_EQ(sw->accelerator().threshold(), 2u);
    // Membership changes no longer adjust H.
    sendControl(1, ControlPayload{Action::kLeave, 0, false});
    s.run();
    EXPECT_EQ(sw->accelerator().threshold(), 2u);
}

TEST_F(StarFixture, ResetClearsPartialAggregation)
{
    joinAll();
    sendData(0, chunk(0, {1.0f}));
    s.run();
    sendControl(1, ControlPayload{Action::kReset, 0, false});
    s.run();
    // Two more contributions do not complete the (cleared) segment...
    sendData(1, chunk(0, {2.0f}));
    sendData(2, chunk(0, {4.0f}));
    s.run();
    EXPECT_EQ(results[0].count(0), 0u);
    // ...until a third arrives.
    sendData(0, chunk(0, {1.0f}));
    s.run();
    ASSERT_EQ(results[0].count(0), 1u);
    EXPECT_FLOAT_EQ(results[0][0][0], 7.0f);
}

TEST_F(StarFixture, FBcastBroadcastsPartialSegment)
{
    joinAll();
    sendData(0, chunk(2, {5.0f}));
    s.run();
    sendControl(0, ControlPayload{Action::kFBcast, 2, true});
    s.run();
    ASSERT_EQ(results[1].count(2), 1u);
    EXPECT_FLOAT_EQ(results[1][2][0], 5.0f);
}

TEST_F(StarFixture, HelpServesCachedResult)
{
    joinAll();
    sendData(0, chunk(0, {1.0f}));
    sendData(1, chunk(0, {2.0f}));
    sendData(2, chunk(0, {3.0f}));
    s.run();
    results[1].clear();
    // Worker 1 lost the broadcast: ask for completion #1 of seg 0.
    sendControl(1, ControlPayload{Action::kHelp, helpValue(1, 0), true});
    s.run();
    ASSERT_EQ(results[1].count(0), 1u);
    EXPECT_FLOAT_EQ(results[1][0][0], 6.0f);
    EXPECT_EQ(sw->cachedResults(), 1u);
}

TEST_F(StarFixture, HelpForIncompleteSegmentRelaysRetransmit)
{
    joinAll();
    sendData(0, chunk(0, {1.0f}));
    sendData(1, chunk(0, {2.0f}));
    s.run(); // 2 of 3: segment incomplete
    sendControl(0, ControlPayload{Action::kHelp, helpValue(1, 0), true});
    s.run();
    // Every worker got the relayed Help; partial state was cleared.
    for (std::size_t w = 0; w < 3; ++w) {
        bool saw_help = false;
        for (const auto &c : controls[w])
            saw_help |= c.action == Action::kHelp &&
                        helpSeg(c.value) == 0;
        EXPECT_TRUE(saw_help) << "worker " << w;
    }
    EXPECT_EQ(sw->accelerator().pool().activeSegments(), 0u);
}

TEST_F(StarFixture, HelpIgnoresStaleCompletionSeq)
{
    joinAll();
    sendData(0, chunk(0, {1.0f}));
    sendData(1, chunk(0, {2.0f}));
    sendData(2, chunk(0, {3.0f}));
    s.run();
    results[0].clear();
    // Asking for completion #2 (a later round) must not serve round 1.
    sendControl(0, ControlPayload{Action::kHelp, helpValue(2, 0), true});
    s.run();
    EXPECT_EQ(results[0].count(0), 0u);
}

TEST_F(StarFixture, PlainTrafficStillForwards)
{
    joinAll();
    int got = 0;
    hosts[1]->setReceiveHandler([&](PacketPtr) { ++got; });
    hosts[0]->sendTo(hosts[1]->ip(), 7, 7, /*tos=*/0,
                     net::RawPayload{128, 0});
    s.run();
    EXPECT_EQ(got, 1);
}

TEST(Hierarchy, TwoLevelAggregationMatchesFlatSum)
{
    sim::Simulation s{1};
    net::Topology topo(s);

    ProgrammableSwitchConfig core_cfg;
    core_cfg.ip = Ipv4Addr(10, 0, 255, 1);
    auto *core = topo.addSwitch<ProgrammableSwitch>("core", 2, core_cfg);

    std::vector<ProgrammableSwitch *> tors;
    std::vector<net::Host *> hosts;
    std::vector<std::map<std::uint64_t, std::vector<float>>> results(4);
    for (int r = 0; r < 2; ++r) {
        ProgrammableSwitchConfig tor_cfg;
        tor_cfg.ip = Ipv4Addr(10, 0, static_cast<std::uint8_t>(r), 1);
        tor_cfg.parent = core_cfg.ip;
        auto *tor = topo.addSwitch<ProgrammableSwitch>(
            "tor" + std::to_string(r), 3, tor_cfg);
        for (int h = 0; h < 2; ++h) {
            const std::size_t idx = static_cast<std::size_t>(r * 2 + h);
            net::Host *host = topo.addHost(
                "w" + std::to_string(idx),
                Ipv4Addr(10, 0, static_cast<std::uint8_t>(r),
                         static_cast<std::uint8_t>(2 + h)));
            topo.connectHost(host, tor, static_cast<std::size_t>(h));
            tor->adminJoin(host->ip(), kWkPort, MemberType::kWorker);
            host->setReceiveHandler([&results, idx](PacketPtr pkt) {
                if (pkt->ip.tos != net::kTosResult)
                    return;
                if (const auto *c =
                        std::get_if<ChunkPayload>(&pkt->payload))
                    results[idx][c->seg] = c->values;
            });
            hosts.push_back(host);
        }
        topo.connectSwitches(tor, 2, core, static_cast<std::size_t>(r));
        core->addRoute(tor->ip(), static_cast<std::size_t>(r));
        core->adminJoin(tor->ip(), kSwPort, MemberType::kSwitch);
        tors.push_back(tor);
    }

    // Each worker contributes (idx+1) to both floats of segment 0.
    for (std::size_t w = 0; w < 4; ++w) {
        hosts[w]->sendTo(tors[w / 2]->ip(), kSwPort, kWkPort, net::kTosData,
                         chunk(0, {float(w + 1), float(10 * (w + 1))}));
    }
    s.run();

    // 1+2+3+4 = 10 at every worker, through two aggregation levels.
    for (std::size_t w = 0; w < 4; ++w) {
        ASSERT_EQ(results[w].count(0), 1u) << "worker " << w;
        EXPECT_FLOAT_EQ(results[w][0][0], 10.0f);
        EXPECT_FLOAT_EQ(results[w][0][1], 100.0f);
    }
    // The ToRs each saw 2 contributions; the core saw 2 partials.
    EXPECT_EQ(tors[0]->accelerator().packetsIngested(), 2u);
    EXPECT_EQ(core->accelerator().packetsIngested(), 2u);
}

TEST(Hierarchy, CachedResultsKeepTheFramePoolBalanced)
{
    // The switches may hand the frame pool only buffers it handed out:
    // its demand is capped by the frames in flight, so any surplus
    // would park one more buffer per segment for the whole run. With a
    // window of 2 every cache prunes once per round after the first
    // few, so each round ends with the same buffers idle.
    net::PacketPool pool;
    const net::PacketPool::Scope scope(pool);
    sim::Simulation s{1};
    net::Topology topo(s);

    ProgrammableSwitchConfig core_cfg;
    core_cfg.ip = Ipv4Addr(10, 0, 255, 1);
    core_cfg.cache_window = 2;
    auto *core = topo.addSwitch<ProgrammableSwitch>("core", 2, core_cfg);

    std::vector<ProgrammableSwitch *> tors;
    std::vector<net::Host *> hosts;
    std::vector<std::uint64_t> results(4, 0);
    for (int r = 0; r < 2; ++r) {
        ProgrammableSwitchConfig tor_cfg;
        tor_cfg.ip = Ipv4Addr(10, 0, static_cast<std::uint8_t>(r), 1);
        tor_cfg.parent = core_cfg.ip;
        tor_cfg.cache_window = 2;
        auto *tor = topo.addSwitch<ProgrammableSwitch>(
            "tor" + std::to_string(r), 3, tor_cfg);
        for (int h = 0; h < 2; ++h) {
            const std::size_t idx = static_cast<std::size_t>(r * 2 + h);
            net::Host *host = topo.addHost(
                "w" + std::to_string(idx),
                Ipv4Addr(10, 0, static_cast<std::uint8_t>(r),
                         static_cast<std::uint8_t>(2 + h)));
            topo.connectHost(host, tor, static_cast<std::size_t>(h));
            tor->adminJoin(host->ip(), kWkPort, MemberType::kWorker);
            host->setReceiveHandler([&results, idx](PacketPtr pkt) {
                if (pkt->ip.tos == net::kTosResult)
                    ++results[idx];
            });
            hosts.push_back(host);
        }
        topo.connectSwitches(tor, 2, core, static_cast<std::size_t>(r));
        core->addRoute(tor->ip(), static_cast<std::size_t>(r));
        core->adminJoin(tor->ip(), kSwPort, MemberType::kSwitch);
        tors.push_back(tor);
    }

    // Sync iSwitch stripes the round into the segment index, so every
    // round completes a new segment at each switch.
    const auto round = [&](std::uint64_t seg) {
        for (std::size_t w = 0; w < 4; ++w) {
            ChunkPayload c;
            c.seg = seg;
            c.wire_floats = 2;
            c.values = pool.acquireFloats(2);
            c.values.assign({float(w + 1), float(10 * (w + 1))});
            hosts[w]->sendTo(tors[w / 2]->ip(), kSwPort, kWkPort,
                             net::kTosData, std::move(c));
        }
        s.run();
    };
    constexpr std::uint64_t kRounds = 32;
    for (std::uint64_t seg = 0; seg < kRounds; ++seg)
        round(seg);
    const std::size_t idle = pool.idleFloatBuffers();
    for (std::uint64_t seg = kRounds; seg < 2 * kRounds; ++seg)
        round(seg);

    EXPECT_EQ(pool.idleFloatBuffers(), idle);
    for (std::size_t w = 0; w < 4; ++w)
        EXPECT_EQ(results[w], 2 * kRounds) << "worker " << w;
    EXPECT_LE(core->cachedResults(), 4u);
    EXPECT_LE(tors[0]->cachedResults(), 4u);
}

} // namespace
} // namespace isw::core
