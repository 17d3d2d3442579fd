#include "net/switch.hh"

#include <stdexcept>

namespace isw::net {

EthSwitch::EthSwitch(sim::Simulation &s, std::string name,
                     std::size_t num_ports, SwitchConfig cfg)
    : Node(s, std::move(name), num_ports), cfg_(cfg)
{
}

void
EthSwitch::addRoute(Ipv4Addr ip, std::size_t port)
{
    if (port >= numPorts())
        throw std::out_of_range(name() + ": route to nonexistent port");
    routes_[ip] = port;
}

std::optional<std::size_t>
EthSwitch::routeFor(Ipv4Addr ip) const
{
    auto it = routes_.find(ip);
    if (it != routes_.end())
        return it->second;
    return default_port_;
}

void
EthSwitch::deliver(PacketPtr pkt, std::size_t in_port)
{
    if (interceptIngress(pkt, in_port))
        return;
    forward(std::move(pkt));
}

void
EthSwitch::forward(PacketPtr pkt)
{
    auto port = routeFor(pkt->ip.dst);
    if (!port) {
        ++no_route_;
        return;
    }
    ++forwarded_;
    emitAfterLatency(*port, std::move(pkt));
}

void
EthSwitch::emitAfterLatency(std::size_t port, PacketPtr pkt)
{
    sim_.after(cfg_.forwarding_latency,
               [this, port, pkt = std::move(pkt)]() mutable {
                   sendOut(port, std::move(pkt));
               });
}

} // namespace isw::net
