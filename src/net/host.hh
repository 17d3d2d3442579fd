/**
 * @file
 * End host: a single-port node with MAC/IP identity and an
 * application receive handler.
 */

#ifndef ISW_NET_HOST_HH
#define ISW_NET_HOST_HH

#include <functional>

#include "net/node.hh"

namespace isw::net {

/**
 * A server node with one NIC port — or several when dual-homed for HA
 * (port 0 to the primary switch, port 1 to the backup). All traffic
 * egresses the active uplink; failover flips it.
 */
class Host : public Node
{
  public:
    using ReceiveHandler = std::function<void(PacketPtr)>;

    Host(sim::Simulation &s, std::string name, MacAddr mac, Ipv4Addr ip,
         std::size_t num_ports = 1)
        : Node(s, std::move(name), num_ports), mac_(mac), ip_(ip)
    {}

    MacAddr mac() const { return mac_; }
    Ipv4Addr ip() const { return ip_; }

    /** Install the application-layer receive callback. */
    void setReceiveHandler(ReceiveHandler h) { handler_ = std::move(h); }

    /** Make NIC port @p port the one all egress uses (0 unless failed
     *  over). */
    void setActiveUplink(std::size_t port) { active_uplink_ = port; }

    /** Transmit a packet out of the active NIC port. */
    void send(PacketPtr pkt) { sendOut(active_uplink_, std::move(pkt)); }

    /**
     * Send a UDP datagram from this host's addresses (makeUdpFrame):
     * @p payload is any Payload alternative, moved into the frame.
     */
    template <class P>
    void
    sendTo(Ipv4Addr dst_ip, std::uint16_t dst_port, std::uint16_t src_port,
           std::uint8_t tos, P &&payload)
    {
        ++tx_frames_;
        send(makeUdpFrame(mac_, ip_, src_port, dst_ip, dst_port, tos,
                          std::forward<P>(payload)));
    }

    void deliver(PacketPtr pkt, std::size_t in_port) override;

    /** Frames received (post-filter). */
    std::uint64_t rxFrames() const { return rx_frames_; }
    /** Frames sent. */
    std::uint64_t txFrames() const { return tx_frames_; }

  private:
    MacAddr mac_;
    Ipv4Addr ip_;
    std::size_t active_uplink_ = 0;
    ReceiveHandler handler_;
    std::uint64_t rx_frames_ = 0;
    std::uint64_t tx_frames_ = 0;
};

} // namespace isw::net

#endif // ISW_NET_HOST_HH
