#include "net/link.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "net/node.hh"

namespace isw::net {

Link::Link(sim::Simulation &s, std::string name, LinkConfig cfg)
    : sim_(s), name_(std::move(name)), cfg_(cfg), loss_rng_(s.forkRng())
{
    if (cfg_.bandwidth_bps <= 0.0)
        throw std::invalid_argument("Link: bandwidth must be positive");
}

void
Link::connect(Node *a, std::size_t a_port, Node *b, std::size_t b_port)
{
    if (ends_[0].node || ends_[1].node)
        throw std::logic_error("Link already connected: " + name_);
    ends_[0].node = a;
    ends_[0].port = a_port;
    ends_[1].node = b;
    ends_[1].port = b_port;
    a->attachLink(a_port, this);
    b->attachLink(b_port, this);
}

sim::TimeNs
Link::txTime(std::size_t bytes) const
{
    const double ns =
        static_cast<double>(bytes) * 8.0 * 1e9 / cfg_.bandwidth_bps;
    return static_cast<sim::TimeNs>(std::llround(ns));
}

int
Link::endIndexOf(const Node *n) const
{
    if (ends_[0].node == n)
        return 0;
    if (ends_[1].node == n)
        return 1;
    throw std::logic_error("Link::transmit from non-endpoint node");
}

Node *
Link::peerOf(const Node *n) const
{
    return ends_[1 - endIndexOf(n)].node;
}

void
Link::transmit(Node *from, PacketPtr pkt)
{
    assert(pkt);
    const int src = endIndexOf(from);
    End &tx = ends_[src];
    End &rx = ends_[1 - src];

    const std::size_t bytes = pkt->wireBytes();
    if (bytes != tx.last_tx_bytes) {
        tx.last_tx_bytes = bytes;
        tx.last_tx_ns = txTime(bytes);
    }
    const sim::TimeNs now = sim_.now();
    const sim::TimeNs start = std::max(now, tx.busy_until);
    const sim::TimeNs done = start + tx.last_tx_ns;
    tx.busy_until = done;
    tx.bytes_sent += bytes;

    if (cfg_.loss_prob > 0.0 && loss_rng_.bernoulli(cfg_.loss_prob)) {
        ++tx.dropped;
        return; // the pipe time is still consumed: the frame was sent
    }

    sim::TimeNs extra = 0;
    bool eager = false;
    if (channel_ != nullptr) {
        const ChannelVerdict v = channel_->onFrame(*this, pkt);
        if (v.drop) {
            ++tx.dropped;
            return;
        }
        extra = v.delay;
        if (v.duplicate)
            deliverAt(done + cfg_.propagation + v.dup_delay, rx, pkt);
        eager = v.delay != 0 || v.duplicate;
    }

    const sim::TimeNs when = done + cfg_.propagation + extra;
    // An undelayed frame lands after every undelayed frame sent before
    // it on this direction, so it waits in the FIFO holding the rank it
    // would have been scheduled with now. A rank is only available in
    // the receiver's own domain (0 otherwise): handoffs stay eager.
    const std::uint64_t seq =
        eager ? 0 : sim_.reserveSeq(rx.node->domain());
    if (seq == 0) {
        deliverAt(when, rx, std::move(pkt));
        return;
    }
    rx.inbound.push_back(Flight{when, seq, std::move(pkt)});
    if (rx.inbound.size() == 1)
        armHead(rx);
}

void
Link::armHead(End &rx)
{
    const Flight &head = rx.inbound.front();
    sim_.scheduleReserved(rx.node->domain(), head.when, head.seq,
                          [this, &rx] { deliverHead(rx); });
}

void
Link::deliverHead(End &rx)
{
    PacketPtr pkt = std::move(rx.inbound.front().pkt);
    rx.inbound.pop_front();
    // Arm first, so the FIFO is non-empty exactly when its head is
    // queued, even if deliver() sends onto this direction.
    if (!rx.inbound.empty())
        armHead(rx);
    land(rx, std::move(pkt));
}

void
Link::deliverAt(sim::TimeNs when, End &rx, PacketPtr pkt)
{
    // The delivery event belongs to the *receiver's* shard domain:
    // this is the single point where causality crosses a domain
    // boundary, and the propagation delay baked into `when` is what
    // funds the engine's lookahead. atInDomain degenerates to a plain
    // schedule on un-sharded simulations.
    sim_.atInDomain(rx.node->domain(), when,
                    [this, &rx, pkt = std::move(pkt)]() mutable {
                        land(rx, std::move(pkt));
                    });
}

void
Link::land(End &rx, PacketPtr pkt)
{
    ++rx.delivered;
    rx.node->deliver(std::move(pkt), rx.port);
}

} // namespace isw::net
