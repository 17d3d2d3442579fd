/**
 * @file
 * L3 Ethernet switch with static routes (Figure 6's baseline data
 * plane: header parse -> lookup tables -> egress queue).
 *
 * Programmable behaviour is added by overriding interceptIngress():
 * the iSwitch accelerator (src/core) consumes tagged packets before
 * they reach the forwarding pipeline, exactly as the paper's enhanced
 * Input Arbiter feeds tagged packets to the accelerator.
 */

#ifndef ISW_NET_SWITCH_HH
#define ISW_NET_SWITCH_HH

#include <optional>
#include <unordered_map>

#include "net/node.hh"

namespace isw::net {

/** Static configuration of a switch. */
struct SwitchConfig
{
    /** Header parse + lookup + crossbar latency per forwarded frame. */
    sim::TimeNs forwarding_latency = 800;
};

/** A store-and-forward switch with an exact-match IPv4 route table. */
class EthSwitch : public Node
{
  public:
    EthSwitch(sim::Simulation &s, std::string name, std::size_t num_ports,
              SwitchConfig cfg = {});

    /** Route packets destined to @p ip out of @p port. */
    void addRoute(Ipv4Addr ip, std::size_t port);

    /** Port used when no route matches (typically the uplink). */
    void setDefaultPort(std::size_t port) { default_port_ = port; }

    /** Look up the egress port for @p ip. */
    std::optional<std::size_t> routeFor(Ipv4Addr ip) const;

    void deliver(PacketPtr pkt, std::size_t in_port) final;

    std::uint64_t forwardedFrames() const { return forwarded_; }
    std::uint64_t droppedNoRoute() const { return no_route_; }

  protected:
    /**
     * Hook for programmable extensions. Return true to consume the
     * packet (it will not be forwarded by the regular pipeline).
     */
    virtual bool interceptIngress(const PacketPtr &pkt, std::size_t in_port)
    {
        (void)pkt;
        (void)in_port;
        return false;
    }

    /** Forward a frame through the regular pipeline (with latency). */
    void forward(PacketPtr pkt);

    /** Emit a frame on @p port after the forwarding latency. */
    void emitAfterLatency(std::size_t port, PacketPtr pkt);

  private:
    SwitchConfig cfg_;
    std::unordered_map<Ipv4Addr, std::size_t> routes_;
    std::optional<std::size_t> default_port_;
    std::uint64_t forwarded_ = 0;
    std::uint64_t no_route_ = 0;
};

} // namespace isw::net

#endif // ISW_NET_SWITCH_HH
