#include "dist/cluster.hh"

#include <algorithm>
#include <stdexcept>

namespace isw::dist {

namespace {
/** Host and rack indices each fill one address octet: every address
 *  plan caps such a count at 250. */
void
checkOctet(std::size_t count, const char *what)
{
    if (count > 250)
        throw std::invalid_argument(what);
}
} // namespace

core::ProgrammableSwitch *
Cluster::leafOf(std::size_t i) const
{
    if (workersPerRack == 0)
        return leaves.at(0);
    return leaves.at(i / workersPerRack);
}

Cluster
buildStarCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    if (!cfg.worker_jobs.empty() &&
        cfg.worker_jobs.size() != cfg.num_workers)
        throw std::invalid_argument(
            "buildStarCluster: worker_jobs size mismatch");
    if (cfg.ha.with_backup && cfg.accel.num_slots != 0)
        throw std::invalid_argument(
            "buildStarCluster: HA backups require the unbounded "
            "dedicated-switch slot model (accel.num_slots == 0)");
    checkOctet(cfg.num_workers, "buildStarCluster: too many workers for "
                                "the 10.0.0.x address plan");
    const std::size_t shards =
        cfg.with_ps ? std::max<std::size_t>(cfg.ps_shards, 1) : 0;
    checkOctet(shards, "buildStarCluster: too many PS shards for the "
                       "10.0.254.x address plan");
    Cluster c;
    c.topo = std::make_unique<net::Topology>(s);
    const std::size_t ha_ports = cfg.ha.with_backup ? 1 : 0;
    const std::size_t host_ports = cfg.ha.with_backup ? 2 : 1;

    core::ProgrammableSwitchConfig sw_cfg;
    sw_cfg.base = cfg.switch_cfg;
    sw_cfg.accel = cfg.accel;
    sw_cfg.ip = net::Ipv4Addr(10, 0, 0, 1);
    sw_cfg.udp_port = kSwitchPort;
    auto *sw = c.topo->addSwitch<core::ProgrammableSwitch>(
        "switch0", cfg.num_workers + shards + ha_ports, sw_cfg);
    c.leaves.push_back(sw);
    c.root = sw;

    for (std::size_t i = 0; i < cfg.num_workers; ++i) {
        auto *h = c.topo->addHost("worker" + std::to_string(i),
                                  net::Ipv4Addr(10, 0, 0,
                                                static_cast<std::uint8_t>(
                                                    2 + i)),
                                  host_ports);
        c.primary_links.push_back(
            c.topo->connectHost(h, sw, i, cfg.edge_link));
        sw->adminJoin(h->ip(), kWorkerPort, core::MemberType::kWorker,
                      cfg.worker_jobs.empty() ? std::uint8_t{0}
                                              : cfg.worker_jobs[i]);
        c.workers.push_back(h);
    }
    for (std::size_t k = 0; k < shards; ++k) {
        net::Host *h = c.topo->addHost(
            shards == 1 ? "ps" : "ps" + std::to_string(k),
            net::Ipv4Addr(10, 0, 254, static_cast<std::uint8_t>(2 + k)),
            host_ports);
        c.primary_links.push_back(
            c.topo->connectHost(h, sw, cfg.num_workers + k, cfg.edge_link));
        c.ps_shards.push_back(h); // not aggregation members
    }
    if (!c.ps_shards.empty())
        c.ps = c.ps_shards.front();

    if (cfg.ha.with_backup) {
        // Shadow switch: every host dual-homes its port 1 to the
        // backup; on kFailover the hosts flip their active uplink.
        core::ProgrammableSwitchConfig bk_cfg = sw_cfg;
        bk_cfg.ip = net::Ipv4Addr(10, 0, 253, 1);
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", cfg.num_workers + shards + 1, bk_cfg);
        for (std::size_t i = 0; i < cfg.num_workers; ++i) {
            c.topo->connectHostPort(c.workers[i], 1, bk, i, cfg.edge_link);
            bk->adminJoin(c.workers[i]->ip(), kWorkerPort,
                          core::MemberType::kWorker,
                          cfg.worker_jobs.empty() ? std::uint8_t{0}
                                                  : cfg.worker_jobs[i]);
        }
        for (std::size_t k = 0; k < shards; ++k)
            c.topo->connectHostPort(c.ps_shards[k], 1, bk,
                                    cfg.num_workers + k, cfg.edge_link);
        const std::size_t peer = cfg.num_workers + shards;
        c.primary_links.push_back(
            c.topo->connectPeers(sw, peer, bk, peer, cfg.edge_link));
        sw->addRoute(bk->ip(), peer);
        sw->enableHaPrimary(bk->ip(), kSwitchPort,
                            {cfg.ha.repl_mode, cfg.ha.staleness_window});
        bk->enableHaBackup(cfg.ha.heartbeat_period, cfg.ha.miss_threshold);
        c.backup = bk;
    }
    return c;
}

Cluster
buildTreeCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    if (cfg.per_rack == 0)
        throw std::invalid_argument("buildTreeCluster: per_rack == 0");
    checkOctet(cfg.per_rack, "buildTreeCluster: per_rack exceeds the "
                             "10.0.rack.x address plan");
    Cluster c;
    c.topo = std::make_unique<net::Topology>(s);
    c.workersPerRack = cfg.per_rack;
    const std::size_t racks =
        (cfg.num_workers + cfg.per_rack - 1) / cfg.per_rack;
    checkOctet(racks, "buildTreeCluster: too many racks for the "
                      "10.0.rack.x address plan");
    const std::size_t shards =
        cfg.with_ps ? std::max<std::size_t>(cfg.ps_shards, 1) : 0;
    checkOctet(shards, "buildTreeCluster: too many PS shards for the "
                       "10.0.254.x address plan");
    if (cfg.ha.with_backup && cfg.accel.num_slots != 0)
        throw std::invalid_argument(
            "buildTreeCluster: HA backups require the unbounded "
            "dedicated-switch slot model (accel.num_slots == 0)");
    const std::size_t ha_ports = cfg.ha.with_backup ? 1 : 0;

    core::ProgrammableSwitchConfig core_cfg;
    core_cfg.base = cfg.switch_cfg;
    core_cfg.accel = cfg.accel;
    core_cfg.ip = net::Ipv4Addr(10, 0, 255, 1);
    core_cfg.udp_port = kSwitchPort;
    auto *root = c.topo->addSwitch<core::ProgrammableSwitch>(
        "core", racks + ha_ports, core_cfg);
    c.root = root;

    std::size_t next_worker = 0;
    for (std::size_t r = 0; r < racks; ++r) {
        // PS shards spread round-robin over racks (shard k on rack
        // k % racks), so each rack's ToR needs a port per local shard.
        const std::size_t rack_ps =
            shards / racks + (r < shards % racks ? 1 : 0);
        core::ProgrammableSwitchConfig tor_cfg;
        tor_cfg.base = cfg.switch_cfg;
        tor_cfg.accel = cfg.accel;
        tor_cfg.ip = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r), 1);
        tor_cfg.udp_port = kSwitchPort;
        tor_cfg.parent = core_cfg.ip;
        tor_cfg.parent_port = kSwitchPort;
        // Ports: per_rack workers + uplink + local PS shards (at least
        // one spare slot, matching the pre-sharded layout) + one
        // pre-wired failover uplink when an HA backup exists.
        auto *tor = c.topo->addSwitch<core::ProgrammableSwitch>(
            "tor" + std::to_string(r),
            cfg.per_rack + 1 + std::max<std::size_t>(1, rack_ps) + ha_ports,
            tor_cfg);
        c.leaves.push_back(tor);

        tor->setDomain(static_cast<sim::DomainId>(r + 1));

        std::size_t used = 0;
        for (; used < cfg.per_rack && next_worker < cfg.num_workers;
             ++used, ++next_worker) {
            auto *h = c.topo->addHost(
                "worker" + std::to_string(next_worker),
                net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r),
                              static_cast<std::uint8_t>(2 + used)));
            h->setDomain(static_cast<sim::DomainId>(r + 1));
            c.topo->connectHost(h, tor, used, cfg.edge_link);
            tor->adminJoin(h->ip(), kWorkerPort, core::MemberType::kWorker);
            c.workers.push_back(h);
        }
        // Uplink on the port after the last worker slot.
        c.primary_links.push_back(
            c.topo->connectSwitches(tor, cfg.per_rack, root, r, cfg.uplink));
        // The core must be able to address the ToR itself (results &
        // control), not just the hosts behind it.
        root->addRoute(tor->ip(), r);
        root->adminJoin(tor->ip(), kSwitchPort, core::MemberType::kSwitch);
    }

    for (std::size_t k = 0; k < shards; ++k) {
        const std::size_t rack = k % racks;
        net::Host *h = c.topo->addHost(
            shards == 1 ? "ps" : "ps" + std::to_string(k),
            net::Ipv4Addr(10, 0, 254, static_cast<std::uint8_t>(2 + k)));
        h->setDomain(static_cast<sim::DomainId>(rack + 1));
        c.topo->connectHost(h, c.leaves[rack],
                            cfg.per_rack + 1 + k / racks, cfg.edge_link);
        c.ps_shards.push_back(h); // not aggregation members
    }
    if (!c.ps_shards.empty())
        c.ps = c.ps_shards.front();

    if (cfg.ha.with_backup) {
        // Second root-level switch in domain 0. Wired after the PS
        // loop so subtreeHosts() already includes the PS shards.
        core::ProgrammableSwitchConfig bk_cfg = core_cfg; // root-style
        bk_cfg.ip = net::Ipv4Addr(10, 0, 255, 2);
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", racks + 1, bk_cfg);
        for (std::size_t r = 0; r < racks; ++r) {
            core::ProgrammableSwitch *tor = c.leaves[r];
            const std::size_t fail_port = tor->numPorts() - 1;
            // Failover links must stay up through a primary crash, so
            // they are NOT recorded in primary_links.
            c.topo->connectPeers(tor, fail_port, bk, r, cfg.uplink);
            bk->addRoute(tor->ip(), r);
            for (net::Host *h : c.topo->subtreeHosts(tor))
                bk->addRoute(h->ip(), r);
            bk->adminJoin(tor->ip(), kSwitchPort,
                          core::MemberType::kSwitch);
            tor->setFailoverUplink(bk->ip(), fail_port);
        }
        c.primary_links.push_back(
            c.topo->connectPeers(root, racks, bk, racks, cfg.uplink));
        root->addRoute(bk->ip(), racks);
        root->enableHaPrimary(bk->ip(), kSwitchPort,
                              {cfg.ha.repl_mode, cfg.ha.staleness_window});
        bk->enableHaBackup(cfg.ha.heartbeat_period, cfg.ha.miss_threshold);
        c.backup = bk;
    }

    // Shard plan: one domain per rack + domain 0 for the core. The
    // only links crossing domains are the ToR uplinks (plus the ToR
    // failover uplinks under HA, which share the same propagation).
    c.sim_domains = racks + 1;
    c.domain_lookahead = cfg.uplink.propagation;
    return c;
}

Cluster
buildFatTreeCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    if (cfg.per_rack == 0)
        throw std::invalid_argument("buildFatTreeCluster: per_rack == 0");
    checkOctet(cfg.per_rack, "buildFatTreeCluster: per_rack exceeds the "
                             "10.0.rack.x address plan");
    if (cfg.racks_per_pod == 0)
        throw std::invalid_argument(
            "buildFatTreeCluster: racks_per_pod == 0");
    Cluster c;
    c.topo = std::make_unique<net::Topology>(s);
    c.workersPerRack = cfg.per_rack;
    const std::size_t racks =
        (cfg.num_workers + cfg.per_rack - 1) / cfg.per_rack;
    checkOctet(racks, "buildFatTreeCluster: too many racks for the "
                      "10.0.rack.x address plan");
    const std::size_t pods =
        (racks + cfg.racks_per_pod - 1) / cfg.racks_per_pod;
    const std::size_t shards =
        cfg.with_ps ? std::max<std::size_t>(cfg.ps_shards, 1) : 0;
    checkOctet(shards, "buildFatTreeCluster: too many PS shards for the "
                       "10.0.254.x address plan");
    if (cfg.ha.with_backup && cfg.accel.num_slots != 0)
        throw std::invalid_argument(
            "buildFatTreeCluster: HA backups require the unbounded "
            "dedicated-switch slot model (accel.num_slots == 0)");
    const std::size_t ha_ports = cfg.ha.with_backup ? 1 : 0;

    core::ProgrammableSwitchConfig core_cfg;
    core_cfg.base = cfg.switch_cfg;
    core_cfg.accel = cfg.accel;
    core_cfg.ip = net::Ipv4Addr(10, 1, 255, 1);
    core_cfg.udp_port = kSwitchPort;
    auto *root = c.topo->addSwitch<core::ProgrammableSwitch>(
        "core", pods + ha_ports, core_cfg);
    c.root = root;

    // AGG layer first: each pod's AGG joins the core as a kSwitch
    // member, so the core's auto-threshold H = number of pods. Wiring
    // the AGG uplinks before any ToR/host lets the subtree-route
    // propagation in connectHost/connectSwitches reach the core.
    for (std::size_t p = 0; p < pods; ++p) {
        const std::size_t pod_racks =
            std::min(cfg.racks_per_pod, racks - p * cfg.racks_per_pod);
        core::ProgrammableSwitchConfig agg_cfg;
        agg_cfg.base = cfg.switch_cfg;
        agg_cfg.accel = cfg.accel;
        agg_cfg.ip = net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(p), 1);
        agg_cfg.udp_port = kSwitchPort;
        agg_cfg.parent = core_cfg.ip;
        agg_cfg.parent_port = kSwitchPort;
        auto *agg = c.topo->addSwitch<core::ProgrammableSwitch>(
            "agg" + std::to_string(p), pod_racks + 1 + ha_ports, agg_cfg);
        c.primary_links.push_back(c.topo->connectSwitches(
            agg, pod_racks, root, p, cfg.core_link));
        root->addRoute(agg->ip(), p);
        root->adminJoin(agg->ip(), kSwitchPort, core::MemberType::kSwitch);
        c.aggs.push_back(agg);
    }

    std::size_t next_worker = 0;
    for (std::size_t r = 0; r < racks; ++r) {
        const std::size_t pod = r / cfg.racks_per_pod;
        const std::size_t slot = r % cfg.racks_per_pod;
        core::ProgrammableSwitch *agg = c.aggs[pod];

        core::ProgrammableSwitchConfig tor_cfg;
        tor_cfg.base = cfg.switch_cfg;
        tor_cfg.accel = cfg.accel;
        tor_cfg.ip = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r), 1);
        tor_cfg.udp_port = kSwitchPort;
        tor_cfg.parent = agg->ip();
        tor_cfg.parent_port = kSwitchPort;
        // Ports: per_rack workers + uplink + local PS shards (shard k
        // lands on rack k % racks; at least one spare slot, matching
        // the pre-sharded layout).
        const std::size_t rack_ps =
            shards / racks + (r < shards % racks ? 1 : 0);
        auto *tor = c.topo->addSwitch<core::ProgrammableSwitch>(
            "tor" + std::to_string(r),
            cfg.per_rack + 1 + std::max<std::size_t>(1, rack_ps), tor_cfg);
        tor->setDomain(static_cast<sim::DomainId>(r + 1));
        c.leaves.push_back(tor);

        std::size_t used = 0;
        for (; used < cfg.per_rack && next_worker < cfg.num_workers;
             ++used, ++next_worker) {
            auto *h = c.topo->addHost(
                "worker" + std::to_string(next_worker),
                net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r),
                              static_cast<std::uint8_t>(2 + used)));
            h->setDomain(static_cast<sim::DomainId>(r + 1));
            c.topo->connectHost(h, tor, used, cfg.edge_link);
            tor->adminJoin(h->ip(), kWorkerPort, core::MemberType::kWorker);
            c.workers.push_back(h);
        }
        c.topo->connectSwitches(tor, cfg.per_rack, agg, slot, cfg.uplink);
        // Parents must be able to address the ToR itself (results &
        // control), not just the hosts behind it.
        agg->addRoute(tor->ip(), slot);
        root->addRoute(tor->ip(), pod);
        agg->adminJoin(tor->ip(), kSwitchPort, core::MemberType::kSwitch);
    }

    for (std::size_t k = 0; k < shards; ++k) {
        const std::size_t rack = k % racks;
        net::Host *h = c.topo->addHost(
            shards == 1 ? "ps" : "ps" + std::to_string(k),
            net::Ipv4Addr(10, 0, 254, static_cast<std::uint8_t>(2 + k)));
        h->setDomain(static_cast<sim::DomainId>(rack + 1));
        c.topo->connectHost(h, c.leaves[rack],
                            cfg.per_rack + 1 + k / racks, cfg.edge_link);
        c.ps_shards.push_back(h); // not aggregation members
    }
    if (!c.ps_shards.empty())
        c.ps = c.ps_shards.front();

    if (cfg.ha.with_backup) {
        // AGG-layer backup: a second root-level switch in domain 0,
        // pre-wired to every AGG. Wired after the PS loop so
        // subtreeHosts() already includes the PS shards.
        core::ProgrammableSwitchConfig bk_cfg = core_cfg; // root-style
        bk_cfg.ip = net::Ipv4Addr(10, 1, 254, 1);
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", pods + 1, bk_cfg);
        for (std::size_t p = 0; p < pods; ++p) {
            core::ProgrammableSwitch *agg = c.aggs[p];
            const std::size_t fail_port = agg->numPorts() - 1;
            // Failover links must stay up through a primary crash, so
            // they are NOT recorded in primary_links. All endpoints
            // live in domain 0 (the fabric layer).
            c.topo->connectPeers(agg, fail_port, bk, p, cfg.core_link);
            bk->addRoute(agg->ip(), p);
            for (net::Host *h : c.topo->subtreeHosts(agg))
                bk->addRoute(h->ip(), p);
            bk->adminJoin(agg->ip(), kSwitchPort,
                          core::MemberType::kSwitch);
            agg->setFailoverUplink(bk->ip(), fail_port);
        }
        c.primary_links.push_back(
            c.topo->connectPeers(root, pods, bk, pods, cfg.core_link));
        root->addRoute(bk->ip(), pods);
        root->enableHaPrimary(bk->ip(), kSwitchPort,
                              {cfg.ha.repl_mode, cfg.ha.staleness_window});
        bk->enableHaBackup(cfg.ha.heartbeat_period, cfg.ha.miss_threshold);
        c.backup = bk;
    }

    // Shard plan: one domain per rack, domain 0 for the AGG + core
    // fabric. Only the ToR uplinks cross domains (AGG <-> core links
    // are internal to domain 0), so the lookahead is the ToR uplink
    // propagation delay.
    c.sim_domains = racks + 1;
    c.domain_lookahead = cfg.uplink.propagation;
    return c;
}

} // namespace isw::dist
