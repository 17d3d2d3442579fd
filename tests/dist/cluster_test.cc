/** @file Cluster builder tests (star, tree and fat-tree). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "dist/cluster.hh"

namespace isw::dist {
namespace {

TEST(StarCluster, BuildsWorkersAndMembership)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 4;
    Cluster c = buildStarCluster(s, cfg);
    EXPECT_EQ(c.workers.size(), 4u);
    ASSERT_EQ(c.leaves.size(), 1u);
    EXPECT_EQ(c.root, c.leaves[0]);
    EXPECT_EQ(c.ps, nullptr);
    EXPECT_EQ(c.root->controlPlane().table().size(), 4u);
    EXPECT_EQ(c.root->accelerator().threshold(), 4u);
    EXPECT_TRUE(c.root->isRoot());
}

TEST(StarCluster, PsNodeIsNotAMember)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 2;
    cfg.with_ps = true;
    Cluster c = buildStarCluster(s, cfg);
    ASSERT_NE(c.ps, nullptr);
    EXPECT_EQ(c.root->controlPlane().table().size(), 2u);
    // The PS host is routable through the switch.
    EXPECT_TRUE(c.root->routeFor(c.ps->ip()).has_value());
}

TEST(StarCluster, LeafOfAllWorkersIsTheSwitch)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 3;
    Cluster c = buildStarCluster(s, cfg);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(c.leafOf(i), c.root);
}

TEST(TreeCluster, RackLayoutMatchesPaperSetup)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 9;
    cfg.per_rack = 3;
    Cluster c = buildTreeCluster(s, cfg);
    EXPECT_EQ(c.workers.size(), 9u);
    EXPECT_EQ(c.leaves.size(), 3u);
    EXPECT_TRUE(c.root->isRoot());
    for (auto *tor : c.leaves) {
        EXPECT_FALSE(tor->isRoot());
        EXPECT_EQ(tor->controlPlane().table().size(), 3u);
        EXPECT_EQ(tor->accelerator().threshold(), 3u);
    }
    // The core aggregates across the three ToRs.
    EXPECT_EQ(c.root->controlPlane().table().size(), 3u);
    EXPECT_EQ(c.root->accelerator().threshold(), 3u);
}

TEST(TreeCluster, PartialLastRack)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 4;
    cfg.per_rack = 3;
    Cluster c = buildTreeCluster(s, cfg);
    EXPECT_EQ(c.leaves.size(), 2u);
    EXPECT_EQ(c.leaves[0]->controlPlane().table().size(), 3u);
    EXPECT_EQ(c.leaves[1]->controlPlane().table().size(), 1u);
    EXPECT_EQ(c.leaves[1]->accelerator().threshold(), 1u);
}

TEST(TreeCluster, LeafOfMapsWorkersToRacks)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 6;
    cfg.per_rack = 3;
    Cluster c = buildTreeCluster(s, cfg);
    EXPECT_EQ(c.leafOf(0), c.leaves[0]);
    EXPECT_EQ(c.leafOf(2), c.leaves[0]);
    EXPECT_EQ(c.leafOf(3), c.leaves[1]);
    EXPECT_EQ(c.leafOf(5), c.leaves[1]);
}

TEST(TreeCluster, CrossRackRoutingWorks)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 6;
    cfg.per_rack = 3;
    Cluster c = buildTreeCluster(s, cfg);
    int got = 0;
    c.workers[5]->setReceiveHandler([&](net::PacketPtr) { ++got; });
    c.workers[0]->sendTo(c.workers[5]->ip(), 7, 7, 0,
                         net::RawPayload{64, 0});
    s.run();
    EXPECT_EQ(got, 1);
}

TEST(TreeCluster, RejectsZeroPerRack)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.per_rack = 0;
    EXPECT_THROW(buildTreeCluster(s, cfg), std::invalid_argument);
}

TEST(TreeCluster, UnevenLastRackThresholdsAndDomains)
{
    // 7 workers in racks of 3: occupancy 3/3/1. Each ToR's threshold
    // must track its own occupancy, not per_rack, or the last rack's
    // aggregation never fires.
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 7;
    cfg.per_rack = 3;
    Cluster c = buildTreeCluster(s, cfg);
    ASSERT_EQ(c.leaves.size(), 3u);
    const std::size_t expect[] = {3, 3, 1};
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(c.leaves[r]->controlPlane().table().size(), expect[r]);
        EXPECT_EQ(c.leaves[r]->accelerator().threshold(), expect[r]);
        EXPECT_EQ(c.leaves[r]->domain(), r + 1);
    }
    EXPECT_EQ(c.root->accelerator().threshold(), 3u); // 3 ToRs
    EXPECT_EQ(c.sim_domains, 4u); // 3 racks + fabric domain 0
    EXPECT_EQ(c.domain_lookahead, cfg.uplink.propagation);
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(c.workers[i]->domain(), i / 3 + 1);
}

TEST(FatTreeCluster, LayoutThresholdsAndDomains)
{
    // 8 workers, racks of 2, pods of 2 -> 4 racks, 2 AGGs, 1 core.
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 8;
    cfg.per_rack = 2;
    cfg.racks_per_pod = 2;
    Cluster c = buildFatTreeCluster(s, cfg);
    EXPECT_EQ(c.workers.size(), 8u);
    ASSERT_EQ(c.leaves.size(), 4u);
    ASSERT_EQ(c.aggs.size(), 2u);
    EXPECT_TRUE(c.root->isRoot());
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(c.leaves[r]->controlPlane().table().size(), 2u);
        EXPECT_EQ(c.leaves[r]->accelerator().threshold(), 2u);
        EXPECT_EQ(c.leaves[r]->domain(), r + 1);
        EXPECT_EQ(c.leafOf(2 * r), c.leaves[r]);
    }
    for (auto *agg : c.aggs) {
        EXPECT_FALSE(agg->isRoot());
        EXPECT_EQ(agg->controlPlane().table().size(), 2u); // 2 ToRs
        EXPECT_EQ(agg->accelerator().threshold(), 2u);
        EXPECT_EQ(agg->domain(), 0u); // fabric domain
    }
    EXPECT_EQ(c.root->controlPlane().table().size(), 2u); // 2 AGGs
    EXPECT_EQ(c.root->accelerator().threshold(), 2u);
    EXPECT_EQ(c.sim_domains, 5u); // 4 racks + fabric
    EXPECT_EQ(c.domain_lookahead, cfg.uplink.propagation);
}

TEST(FatTreeCluster, UnevenLastRackTracksOccupancy)
{
    // 7 workers, racks of 3, pods of 2 -> racks 3/3/1, pods of 2/1
    // racks. Thresholds follow actual membership at every level.
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 7;
    cfg.per_rack = 3;
    cfg.racks_per_pod = 2;
    Cluster c = buildFatTreeCluster(s, cfg);
    ASSERT_EQ(c.leaves.size(), 3u);
    ASSERT_EQ(c.aggs.size(), 2u);
    const std::size_t expect[] = {3, 3, 1};
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(c.leaves[r]->accelerator().threshold(), expect[r]);
    EXPECT_EQ(c.aggs[0]->accelerator().threshold(), 2u); // racks 0,1
    EXPECT_EQ(c.aggs[1]->accelerator().threshold(), 1u); // rack 2 only
    EXPECT_EQ(c.root->accelerator().threshold(), 2u);    // 2 pods
}

TEST(FatTreeCluster, CrossPodRoutingWorks)
{
    // Worker 0 (pod 0) to the last worker (pod 1): the packet must
    // climb ToR -> AGG -> core and descend the far side.
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 8;
    cfg.per_rack = 2;
    cfg.racks_per_pod = 2;
    Cluster c = buildFatTreeCluster(s, cfg);
    int got = 0;
    c.workers[7]->setReceiveHandler([&](net::PacketPtr) { ++got; });
    c.workers[0]->sendTo(c.workers[7]->ip(), 7, 7, 0,
                         net::RawPayload{64, 0});
    s.run();
    EXPECT_EQ(got, 1);
}

TEST(FatTreeCluster, PsAttachesToRackZero)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 4;
    cfg.per_rack = 2;
    cfg.racks_per_pod = 2;
    cfg.with_ps = true;
    Cluster c = buildFatTreeCluster(s, cfg);
    ASSERT_NE(c.ps, nullptr);
    EXPECT_EQ(c.ps->domain(), 1u); // rack 0's shard domain
    EXPECT_TRUE(c.root->routeFor(c.ps->ip()).has_value());
    // The PS is reachable but not an aggregation member.
    EXPECT_EQ(c.leaves[0]->controlPlane().table().size(), 2u);
}

TEST(FatTreeCluster, RejectsBadShapes)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.per_rack = 0;
    EXPECT_THROW(buildFatTreeCluster(s, cfg), std::invalid_argument);
    cfg.per_rack = 3;
    cfg.racks_per_pod = 0;
    EXPECT_THROW(buildFatTreeCluster(s, cfg), std::invalid_argument);
    cfg.racks_per_pod = 4;
    cfg.per_rack = 1;
    cfg.num_workers = 251; // 251 racks: outside the 10.0.rack.x plan
    EXPECT_THROW(buildFatTreeCluster(s, cfg), std::invalid_argument);
}

TEST(TreeCluster, RejectsZeroWorkers)
{
    // A zero-worker fabric has no rack to put a PS shard on.
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 0;
    EXPECT_THROW(buildTreeCluster(s, cfg), std::invalid_argument);
    cfg.with_ps = true;
    EXPECT_THROW(buildTreeCluster(s, cfg), std::invalid_argument);
}

TEST(FatTreeCluster, RejectsZeroWorkers)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 0;
    EXPECT_THROW(buildFatTreeCluster(s, cfg), std::invalid_argument);
    cfg.with_ps = true;
    EXPECT_THROW(buildFatTreeCluster(s, cfg), std::invalid_argument);
}

// The star and tree address plans give each host or rack index one
// octet, like the fat-tree's: past 250 they would hand out duplicate
// (and switch-owned) IPs, so the builders must refuse.

TEST(StarCluster, RejectsWorkersBeyondTheAddressPlan)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.num_workers = 251;
    EXPECT_THROW(buildStarCluster(s, cfg), std::invalid_argument);
}

TEST(StarCluster, RejectsPsShardsBeyondTheAddressPlan)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.with_ps = true;
    cfg.ps_shards = 251;
    EXPECT_THROW(buildStarCluster(s, cfg), std::invalid_argument);
}

TEST(TreeCluster, RejectsPerRackBeyondTheAddressPlan)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.per_rack = 251;
    EXPECT_THROW(buildTreeCluster(s, cfg), std::invalid_argument);
}

TEST(TreeCluster, RejectsRacksBeyondTheAddressPlan)
{
    sim::Simulation s{1};
    ClusterConfig cfg;
    cfg.per_rack = 1;
    cfg.num_workers = 251; // 251 racks
    EXPECT_THROW(buildTreeCluster(s, cfg), std::invalid_argument);
}

// Wiring golden tests. Each shape's canonical text dump is hashed with
// FNV-1a and compared with the hash recorded when the tree and the
// fat-tree still had separate builders, so any change to a fabric's
// wiring shows here. The dump lists nodes and links in creation order
// (link i draws simulation RNG stream i, host i takes MAC i), with
// names, ports, domains, addresses, MACs, membership rows, thresholds,
// every switch's route to every address (plus an unassigned one, which
// reads the default port), the link and peer on each port, every
// link's config, and the Cluster's handles.

std::string
wiringDump(const Cluster &c)
{
    std::vector<net::Ipv4Addr> addrs;
    for (const auto &n : c.topo->nodes()) {
        if (const auto *h = dynamic_cast<const net::Host *>(n.get()))
            addrs.push_back(h->ip());
        else if (const auto *sw =
                     dynamic_cast<const core::ProgrammableSwitch *>(n.get()))
            addrs.push_back(sw->ip());
    }
    addrs.emplace_back(10, 9, 9, 9);

    std::ostringstream o;
    for (const auto &n : c.topo->nodes()) {
        o << "node " << n->name() << " ports " << n->numPorts()
          << " domain " << n->domain();
        if (const auto *h = dynamic_cast<const net::Host *>(n.get()))
            o << " host " << h->ip().str() << ' ' << h->mac().str();
        if (auto *sw = dynamic_cast<core::ProgrammableSwitch *>(n.get())) {
            o << " switch " << sw->ip().str() << " root " << sw->isRoot()
              << " ha_primary " << (sw->replication() != nullptr);
            std::set<int> jobs{0};
            for (const core::Member &m : sw->controlPlane().table().members()) {
                o << "\n  member " << m.id << ' ' << m.ip.str() << ':'
                  << m.udp_port << " type " << static_cast<int>(m.type)
                  << " job " << static_cast<int>(m.job);
                jobs.insert(m.job);
            }
            for (int j : jobs)
                o << "\n  H job " << j << ' '
                  << sw->accelerator().threshold(
                         static_cast<std::uint8_t>(j));
            for (net::Ipv4Addr a : addrs) {
                const auto port = sw->routeFor(a);
                o << "\n  route " << a.str() << ' '
                  << (port ? std::to_string(*port) : "-");
            }
        }
        for (std::size_t p = 0; p < n->numPorts(); ++p) {
            const net::Link *l = n->link(p);
            o << "\n  port " << p << ' '
              << (l != nullptr ? l->name() + " to " + l->peerOf(n.get())->name()
                               : "-");
        }
        o << '\n';
    }
    for (const auto &l : c.topo->links())
        o << "link " << l->name() << ' ' << l->config().bandwidth_bps << ' '
          << l->config().propagation << ' ' << l->config().loss_prob << '\n';

    const auto name = [](const net::Node *n) {
        return n != nullptr ? n->name() : std::string("-");
    };
    o << "workers";
    for (const net::Host *h : c.workers)
        o << ' ' << h->name();
    o << "\nps " << name(c.ps) << "\nps_shards";
    for (const net::Host *h : c.ps_shards)
        o << ' ' << h->name();
    o << "\nleaves";
    for (const auto *sw : c.leaves)
        o << ' ' << sw->name();
    o << "\naggs";
    for (const auto *sw : c.aggs)
        o << ' ' << sw->name();
    o << "\nroot " << name(c.root) << "\nbackup " << name(c.backup)
      << "\nprimary_links";
    for (const net::Link *l : c.primary_links)
        o << ' ' << l->name();
    o << "\nper_rack " << c.workersPerRack << " domains " << c.sim_domains
      << " lookahead " << c.domain_lookahead << '\n';
    return o.str();
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char ch : text) {
        h ^= ch;
        h *= 1099511628211ULL;
    }
    return h;
}

void
expectWiring(const Cluster &c, const std::string &shape, std::uint64_t want)
{
    const std::string dump = wiringDump(c);
    const std::uint64_t got = fnv1a(dump);
    if (got != want)
        ADD_FAILURE() << shape << ": wiring hash 0x" << std::hex << got
                      << ", recorded 0x" << want << std::dec << "\n"
                      << dump;
}

/** A rack fabric shape: workers in racks of 3, pods of 2 racks. */
struct RackShape
{
    std::size_t workers;
    bool ha;
    std::size_t ps_shards; ///< 0 = no PS
    std::uint64_t hash;
};

ClusterConfig
rackConfig(const RackShape &r)
{
    ClusterConfig cfg;
    cfg.num_workers = r.workers;
    cfg.per_rack = 3;
    cfg.racks_per_pod = 2;
    cfg.with_ps = r.ps_shards > 0;
    cfg.ps_shards = std::max<std::size_t>(r.ps_shards, 1);
    cfg.ha.with_backup = r.ha;
    return cfg;
}

std::string
shapeName(const char *fabric, const RackShape &r)
{
    return std::string(fabric) + " workers=" + std::to_string(r.workers) +
           " ha=" + std::to_string(r.ha) +
           " ps_shards=" + std::to_string(r.ps_shards);
}

constexpr RackShape kTreeShapes[] = {
    {4, false, 0, 0xf8757c6966f34028},
    {4, false, 1, 0xa6cdfc7a528cb810},
    {4, false, 3, 0x8ed09acf068a430},
    {4, true, 0, 0x7543a7271cec8afa},
    {4, true, 1, 0x43484ac6fdc9f85b},
    {4, true, 3, 0x589f8f19399a0eb0},
    {7, false, 0, 0x7acef4464cb80b8f},
    {7, false, 1, 0x5695057dc6cdc8f4},
    {7, false, 3, 0x44a90d045d35dc75},
    {7, true, 0, 0xcb069ec784ee9b8},
    {7, true, 1, 0x65b1fa394979dc84},
    {7, true, 3, 0x73a4ff213589bfbb},
    {12, false, 0, 0x3a239100b4d0dac3},
    {12, false, 1, 0xe7d96a2bac7a9928},
    {12, false, 3, 0xea6fafe95b5f11ad},
    {12, true, 0, 0xd4957b8b08870953},
    {12, true, 1, 0xa80109a78d66192b},
    {12, true, 3, 0xb2797a092284a25a},
    {30, false, 0, 0x3d98a281351cb365},
    {30, false, 1, 0xea37118834969705},
    {30, false, 3, 0x6616a9a5392cb5a4},
    {30, true, 0, 0x28504e6430b78edf},
    {30, true, 1, 0xd3d643f4967f6580},
    {30, true, 3, 0x89dca67176dbb86f},
};

constexpr RackShape kFatTreeShapes[] = {
    {4, false, 0, 0x8d934acee99205da},
    {4, false, 1, 0xdcf1553753358d81},
    {4, false, 3, 0xeb9910b2afc2f08e},
    {4, true, 0, 0xaef0a18157ad011f},
    {4, true, 1, 0xe5b8595a3a21b2cf},
    {4, true, 3, 0x484105e394bd638d},
    {7, false, 0, 0xc703b2c4533dca2b},
    {7, false, 1, 0xa186a324d9aa8a0d},
    {7, false, 3, 0xef900766dbe731ec},
    {7, true, 0, 0x29b7e547aaa695e8},
    {7, true, 1, 0xb23c90bfe85a9a4b},
    {7, true, 3, 0x3cee79273bddbaf6},
    {12, false, 0, 0xfb13ebbe776fe6e4},
    {12, false, 1, 0x9a688932170def6b},
    {12, false, 3, 0x70b1c98b161b5b35},
    {12, true, 0, 0x43bae4428b30a60e},
    {12, true, 1, 0x8376dbdf5f5460fc},
    {12, true, 3, 0xc392c94c51bcd33e},
    {30, false, 0, 0xa35ce76d22aace0},
    {30, false, 1, 0x1c88aba47d17c0a7},
    {30, false, 3, 0x18b790ba5b1e684e},
    {30, true, 0, 0x69dc79e6e2c9602},
    {30, true, 1, 0xa1d3a645918ce48a},
    {30, true, 3, 0xad2c2c430c1c801f},
};

TEST(FabricWiring, TreeMatchesRecordedHashes)
{
    for (const RackShape &r : kTreeShapes) {
        sim::Simulation s{1};
        expectWiring(buildTreeCluster(s, rackConfig(r)),
                     shapeName("tree", r), r.hash);
    }
}

TEST(FabricWiring, FatTreeMatchesRecordedHashes)
{
    for (const RackShape &r : kFatTreeShapes) {
        sim::Simulation s{1};
        expectWiring(buildFatTreeCluster(s, rackConfig(r)),
                     shapeName("fat-tree", r), r.hash);
    }
}

TEST(FabricWiring, StarMatchesRecordedHashes)
{
    struct StarShape
    {
        const char *name;
        std::size_t ps_shards; ///< 0 = no PS
        bool ha;
        std::vector<std::uint8_t> worker_jobs;
        std::uint64_t hash;
    };
    const StarShape shapes[] = {
        {"star plain", 0, false, {}, 0x509f74fcd581bc03},
        {"star ps_shards=3", 3, false, {}, 0x5b72a10e7be05554},
        {"star ha", 0, true, {}, 0x2b20f7b910986f08},
        {"star worker_jobs=1,1,2,2", 0, false, {1, 1, 2, 2},
         0x8a82384f2c728035},
    };
    for (const StarShape &st : shapes) {
        sim::Simulation s{1};
        ClusterConfig cfg;
        cfg.num_workers = 4;
        cfg.with_ps = st.ps_shards > 0;
        cfg.ps_shards = std::max<std::size_t>(st.ps_shards, 1);
        cfg.ha.with_backup = st.ha;
        cfg.worker_jobs = st.worker_jobs;
        expectWiring(buildStarCluster(s, cfg), st.name, st.hash);
    }
}

/** switches() has @p want entries: every switch of the fabric once,
 *  leaves first and the HA backup last. */
void
expectSwitchList(const Cluster &c, std::size_t want, const std::string &shape)
{
    const std::vector<core::ProgrammableSwitch *> list = c.switches();
    ASSERT_EQ(list.size(), want) << shape;
    const std::set<core::ProgrammableSwitch *> listed(list.begin(),
                                                      list.end());
    EXPECT_EQ(listed.size(), list.size()) << shape << ": listed twice";
    std::set<core::ProgrammableSwitch *> owned;
    for (const auto &n : c.topo->nodes())
        if (auto *sw = dynamic_cast<core::ProgrammableSwitch *>(n.get()))
            owned.insert(sw);
    EXPECT_EQ(listed, owned) << shape;
    EXPECT_EQ(list.front(), c.leaves.front()) << shape;
    if (c.backup != nullptr) {
        EXPECT_EQ(list.back(), c.backup) << shape;
    }
}

TEST(FabricWiring, SwitchListHasEveryAggregationSwitchOnce)
{
    for (const RackShape &r : kTreeShapes) {
        sim::Simulation s{1};
        const std::size_t racks = (r.workers + 2) / 3;
        expectSwitchList(buildTreeCluster(s, rackConfig(r)),
                         racks + 1 + (r.ha ? 1 : 0), shapeName("tree", r));
    }
    for (const RackShape &r : kFatTreeShapes) {
        sim::Simulation s{1};
        const std::size_t racks = (r.workers + 2) / 3;
        const std::size_t pods = (racks + 1) / 2;
        expectSwitchList(buildFatTreeCluster(s, rackConfig(r)),
                         racks + pods + 1 + (r.ha ? 1 : 0),
                         shapeName("fat-tree", r));
    }
    for (const bool ha : {false, true}) {
        sim::Simulation s{1};
        ClusterConfig cfg;
        cfg.ha.with_backup = ha;
        expectSwitchList(buildStarCluster(s, cfg), ha ? 2 : 1,
                         ha ? "star ha" : "star");
    }
}

} // namespace
} // namespace isw::dist
