/**
 * @file
 * Full-duplex point-to-point link with serialization, propagation,
 * FIFO egress queueing, and optional random loss.
 */

#ifndef ISW_NET_LINK_HH
#define ISW_NET_LINK_HH

#include <array>
#include <deque>
#include <string>

#include "net/packet.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace isw::net {

class Node;
class Link;

/** What a ChannelModel decided about one frame. */
struct ChannelVerdict
{
    bool drop = false;       ///< lose the frame (pipe time still spent)
    bool duplicate = false;  ///< deliver a second copy
    sim::TimeNs delay = 0;   ///< extra delivery delay (reordering)
    sim::TimeNs dup_delay = 0; ///< extra delay of the duplicate copy
};

/**
 * Pluggable per-frame channel impairment model (fault injection).
 * Consulted after the link's own iid loss draw; the default (no model
 * installed) leaves the data path bit-for-bit unchanged.
 */
class ChannelModel
{
  public:
    virtual ~ChannelModel() = default;

    /** Decide the fate of @p pkt crossing @p link right now. */
    virtual ChannelVerdict onFrame(const Link &link, const PacketPtr &pkt) = 0;
};

/** Static configuration of a link. */
struct LinkConfig
{
    /** Raw bit rate, bits per second (default 10 GbE). */
    double bandwidth_bps = 10e9;
    /** One-way propagation delay. */
    sim::TimeNs propagation = 200;
    /** Per-frame independent drop probability (0 = lossless). */
    double loss_prob = 0.0;
};

/**
 * A full-duplex link between two (node, port) endpoints.
 *
 * Each direction models an egress serialization pipe: a frame begins
 * transmitting when the previous frame's last bit left, occupies the
 * pipe for wireBytes*8/bandwidth, then arrives propagation later
 * (store-and-forward at the receiver).
 *
 * Undelayed frames therefore land in transmit order, so each direction
 * keeps them in an in-flight FIFO with only the head's delivery in the
 * event queue (DESIGN.md §9). Each frame reserves its tie-break rank
 * when sent, which keeps the delivery order exactly that of one event
 * per frame scheduled at transmit. Frames a ChannelModel delays or
 * duplicates, and frames handed to another shard domain, are scheduled
 * individually at transmit instead.
 */
class Link
{
  public:
    Link(sim::Simulation &s, std::string name, LinkConfig cfg);

    /** Wire both endpoints; must be called exactly once. */
    void connect(Node *a, std::size_t a_port, Node *b, std::size_t b_port);

    /** Transmit @p pkt from endpoint node @p from toward its peer. */
    void transmit(Node *from, PacketPtr pkt);

    /** Serialization time of @p bytes at this link's bandwidth. */
    sim::TimeNs txTime(std::size_t bytes) const;

    /**
     * Install a channel impairment model (non-owning; pass nullptr to
     * detach). Zero cost when unset beyond one branch per frame.
     */
    void setChannel(ChannelModel *model) { channel_ = model; }
    ChannelModel *channel() const { return channel_; }

    const std::string &name() const { return name_; }
    const LinkConfig &config() const { return cfg_; }
    Node *peerOf(const Node *n) const;

    /** Total frames dropped by loss injection (both directions). */
    std::uint64_t dropped() const
    {
        return ends_[0].dropped + ends_[1].dropped;
    }
    /** Total frames delivered (both directions). */
    std::uint64_t delivered() const
    {
        return ends_[0].delivered + ends_[1].delivered;
    }
    /** Total payload+header bytes carried (both directions). */
    std::uint64_t bytesCarried() const
    {
        return ends_[0].bytes_sent + ends_[1].bytes_sent;
    }

  private:
    /** An undelayed frame in flight, with its reserved delivery rank. */
    struct Flight
    {
        sim::TimeNs when;
        std::uint64_t seq;
        PacketPtr pkt;
    };

    /**
     * One endpoint. On a sharded simulation a boundary link's two
     * directions run on different domain threads, so every field has
     * a single writer: the egress fields belong to transmit() in this
     * end's domain, the inbound ones to this end's own deliveries. The
     * counter accessors sum both ends once the run is over.
     */
    struct End
    {
        Node *node = nullptr;
        std::size_t port = 0;
        sim::TimeNs busy_until = 0; ///< egress pipe free time
        std::uint64_t bytes_sent = 0; ///< egress bytes, dropped frames too
        std::uint64_t dropped = 0;    ///< egress frames lost
        /** Serialization time of the last egress frame size (the memo
         *  starts at txTime(0) == 0). */
        std::size_t last_tx_bytes = 0;
        sim::TimeNs last_tx_ns = 0;
        std::uint64_t delivered = 0; ///< frames landed at this end
        /** FIFO-path frames headed to this end, in delivery order; only
         *  the front one's delivery is queued. Touched only from this
         *  end's shard domain (or during setup). */
        std::deque<Flight> inbound;
    };

    int endIndexOf(const Node *n) const;
    void deliverAt(sim::TimeNs when, End &rx, PacketPtr pkt);
    /** Queue the delivery of @p rx's inbound head at its reserved rank. */
    void armHead(End &rx);
    /** Deliver @p rx's inbound head and arm the next one. */
    void deliverHead(End &rx);
    /** Hand @p pkt to @p rx's node: the last bit has arrived. */
    void land(End &rx, PacketPtr pkt);

    sim::Simulation &sim_;
    std::string name_;
    LinkConfig cfg_;
    std::array<End, 2> ends_;
    sim::Rng loss_rng_;
    ChannelModel *channel_ = nullptr;
};

} // namespace isw::net

#endif // ISW_NET_LINK_HH
