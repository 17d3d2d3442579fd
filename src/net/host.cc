#include "net/host.hh"

namespace isw::net {

void
Host::deliver(PacketPtr pkt, std::size_t in_port)
{
    (void)in_port;
    ++rx_frames_;
    if (handler_)
        handler_(std::move(pkt));
}

} // namespace isw::net
