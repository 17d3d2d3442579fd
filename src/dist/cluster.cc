#include "dist/cluster.hh"

#include <algorithm>
#include <stdexcept>

namespace isw::dist {

namespace {
/** Host and rack indices each fill one address octet: every address
 *  plan caps such a count at 250. */
void
checkOctet(std::size_t count, const std::string &what)
{
    if (count > 250)
        throw std::invalid_argument(what);
}

/** Config of a fabric switch; @p parent unset makes a root. */
core::ProgrammableSwitchConfig
switchConfig(const ClusterConfig &cfg, net::Ipv4Addr ip,
             net::Ipv4Addr parent = {})
{
    core::ProgrammableSwitchConfig sw;
    sw.base = cfg.switch_cfg;
    sw.accel = cfg.accel;
    sw.ip = ip;
    sw.udp_port = kSwitchPort;
    sw.parent = parent;
    sw.parent_port = kSwitchPort;
    return sw;
}
} // namespace

core::ProgrammableSwitch *
Cluster::leafOf(std::size_t i) const
{
    if (workersPerRack == 0)
        return leaves.at(0);
    return leaves.at(i / workersPerRack);
}

std::vector<core::ProgrammableSwitch *>
Cluster::switches() const
{
    std::vector<core::ProgrammableSwitch *> all = leaves;
    all.insert(all.end(), aggs.begin(), aggs.end());
    if (std::find(leaves.begin(), leaves.end(), root) == leaves.end())
        all.push_back(root);
    if (backup != nullptr)
        all.push_back(backup);
    return all;
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

    auto *sw = c.topo->addSwitch<core::ProgrammableSwitch>(
        "switch0", cfg.num_workers + shards + ha_ports,
        switchConfig(cfg, net::Ipv4Addr(10, 0, 0, 1)));
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
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", cfg.num_workers + shards + 1,
            switchConfig(cfg, net::Ipv4Addr(10, 0, 253, 1)));
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

namespace {

/**
 * The rack fabrics, one mechanism at any depth. Racks of `per_rack`
 * workers hang off ToRs. With @p with_aggs, ToRs are grouped
 * `racks_per_pod` to a pod under an AGG switch and the AGGs under the
 * core (the fat-tree); without, the ToRs hang straight off the core
 * (the two-layer tree). @p who names the public builder in errors.
 */
Cluster
buildRackCluster(sim::Simulation &s, const ClusterConfig &cfg,
                 bool with_aggs, const std::string &who)
{
    if (cfg.per_rack == 0)
        throw std::invalid_argument(who + ": per_rack == 0");
    checkOctet(cfg.per_rack,
               who + ": per_rack exceeds the 10.0.rack.x address plan");
    if (with_aggs && cfg.racks_per_pod == 0)
        throw std::invalid_argument(who + ": racks_per_pod == 0");
    if (cfg.num_workers == 0)
        throw std::invalid_argument(who + ": zero workers");
    const std::size_t racks =
        (cfg.num_workers + cfg.per_rack - 1) / cfg.per_rack;
    checkOctet(racks, who + ": too many racks for the 10.0.rack.x "
                            "address plan");
    const std::size_t pods =
        with_aggs ? (racks + cfg.racks_per_pod - 1) / cfg.racks_per_pod : 0;
    const std::size_t shards =
        cfg.with_ps ? std::max<std::size_t>(cfg.ps_shards, 1) : 0;
    checkOctet(shards, who + ": too many PS shards for the 10.0.254.x "
                             "address plan");
    if (cfg.ha.with_backup && cfg.accel.num_slots != 0)
        throw std::invalid_argument(
            who + ": HA backups require the unbounded dedicated-switch "
                  "slot model (accel.num_slots == 0)");
    const std::size_t ha_ports = cfg.ha.with_backup ? 1 : 0;
    Cluster c;
    c.topo = std::make_unique<net::Topology>(s);
    c.workersPerRack = cfg.per_rack;

    // The root's children (the AGGs, or else the ToRs) and the HA
    // backup join the root over one link class.
    const std::size_t children = with_aggs ? pods : racks;
    const net::LinkConfig &root_link = with_aggs ? cfg.core_link : cfg.uplink;
    auto *root = c.topo->addSwitch<core::ProgrammableSwitch>(
        "core", children + ha_ports,
        switchConfig(cfg, with_aggs ? net::Ipv4Addr(10, 1, 255, 1)
                                    : net::Ipv4Addr(10, 0, 255, 1)));
    c.root = root;

    // AGG layer first: each pod's AGG joins the core as a kSwitch
    // member, so the core's auto-threshold H = number of pods. Wiring
    // the AGG uplinks before any ToR/host lets the subtree-route
    // propagation in connectHost/connectSwitches reach the core.
    for (std::size_t p = 0; p < pods; ++p) {
        const std::size_t pod_racks =
            std::min(cfg.racks_per_pod, racks - p * cfg.racks_per_pod);
        auto *agg = c.topo->addSwitch<core::ProgrammableSwitch>(
            "agg" + std::to_string(p), pod_racks + 1 + ha_ports,
            switchConfig(cfg,
                         net::Ipv4Addr(10, 1, static_cast<std::uint8_t>(p), 1),
                         root->ip()));
        c.primary_links.push_back(c.topo->connectSwitches(
            agg, pod_racks, root, p, cfg.core_link));
        root->addRoute(agg->ip(), p);
        root->adminJoin(agg->ip(), kSwitchPort, core::MemberType::kSwitch);
        c.aggs.push_back(agg);
    }

    std::size_t next_worker = 0;
    for (std::size_t r = 0; r < racks; ++r) {
        // A ToR's parent: its pod's AGG, or the core on a tree.
        core::ProgrammableSwitch *parent =
            with_aggs ? c.aggs[r / cfg.racks_per_pod] : root;
        const std::size_t parent_port =
            with_aggs ? r % cfg.racks_per_pod : r;
        const bool root_child = parent == root;
        // PS shards spread round-robin over racks, so each rack's ToR
        // needs a port per local shard.
        const std::size_t rack_ps =
            shards / racks + (r < shards % racks ? 1 : 0);
        // Ports: per_rack workers + uplink + local PS shards (at least
        // one spare slot, matching the pre-sharded layout) + one
        // pre-wired failover uplink when an HA root is the parent.
        auto *tor = c.topo->addSwitch<core::ProgrammableSwitch>(
            "tor" + std::to_string(r),
            cfg.per_rack + 1 + std::max<std::size_t>(1, rack_ps) +
                (root_child ? ha_ports : 0),
            switchConfig(cfg,
                         net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(r), 1),
                         parent->ip()));
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
        // Uplink on the port after the last worker slot.
        net::Link *up = c.topo->connectSwitches(tor, cfg.per_rack, parent,
                                                parent_port, cfg.uplink);
        if (root_child)
            c.primary_links.push_back(up);
        // Parents must be able to address the ToR itself (results &
        // control), not just the hosts behind it.
        parent->addRoute(tor->ip(), parent_port);
        if (!root_child)
            root->addRoute(tor->ip(), r / cfg.racks_per_pod);
        parent->adminJoin(tor->ip(), kSwitchPort, core::MemberType::kSwitch);
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
        // Second root-level switch in domain 0, pre-wired to every
        // child of the root. Wired after the PS loop so subtreeHosts()
        // already includes the PS shards.
        const std::vector<core::ProgrammableSwitch *> &kids =
            with_aggs ? c.aggs : c.leaves;
        auto *bk = c.topo->addSwitch<core::ProgrammableSwitch>(
            "backup", children + 1,
            switchConfig(cfg, with_aggs ? net::Ipv4Addr(10, 1, 254, 1)
                                        : net::Ipv4Addr(10, 0, 255, 2)));
        for (std::size_t i = 0; i < children; ++i) {
            core::ProgrammableSwitch *kid = kids[i];
            const std::size_t fail_port = kid->numPorts() - 1;
            // Failover links must stay up through a primary crash, so
            // they are NOT recorded in primary_links.
            c.topo->connectPeers(kid, fail_port, bk, i, root_link);
            bk->addRoute(kid->ip(), i);
            for (net::Host *h : c.topo->subtreeHosts(kid))
                bk->addRoute(h->ip(), i);
            bk->adminJoin(kid->ip(), kSwitchPort, core::MemberType::kSwitch);
            kid->setFailoverUplink(bk->ip(), fail_port);
        }
        c.primary_links.push_back(
            c.topo->connectPeers(root, children, bk, children, root_link));
        root->addRoute(bk->ip(), children);
        root->enableHaPrimary(bk->ip(), kSwitchPort,
                              {cfg.ha.repl_mode, cfg.ha.staleness_window});
        bk->enableHaBackup(cfg.ha.heartbeat_period, cfg.ha.miss_threshold);
        c.backup = bk;
    }

    // Shard plan: one domain per rack, domain 0 for the fabric above
    // the ToRs. Only the ToR uplinks cross domains (plus, on a tree
    // with HA, the ToR failover uplinks of the same class), so the
    // lookahead is the uplink propagation delay.
    c.sim_domains = racks + 1;
    c.domain_lookahead = cfg.uplink.propagation;
    return c;
}

} // namespace

Cluster
buildTreeCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    return buildRackCluster(s, cfg, /*with_aggs=*/false, "buildTreeCluster");
}

Cluster
buildFatTreeCluster(sim::Simulation &s, const ClusterConfig &cfg)
{
    return buildRackCluster(s, cfg, /*with_aggs=*/true,
                            "buildFatTreeCluster");
}

} // namespace isw::dist
