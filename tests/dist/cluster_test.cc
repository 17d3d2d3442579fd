/** @file Cluster builder tests (star and rack-scale tree). */

#include <gtest/gtest.h>

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

} // namespace
} // namespace isw::dist
