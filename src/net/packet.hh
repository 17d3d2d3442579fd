/**
 * @file
 * Structured packet model with byte-accurate wire sizes.
 *
 * Packets carry decoded headers plus one of three payload kinds:
 *  - ControlPayload: an iSwitch control message (Action + Value),
 *  - ChunkPayload:   one segment of a bulk float vector (gradients,
 *                    weights, AllReduce chunks, aggregated results),
 *  - RawPayload:     an opaque byte count (background traffic).
 *
 * Keeping payloads decoded makes simulation fast; `core/protocol`
 * provides real byte codecs that round-trip these structures so the
 * wire format of Figure 5 is implemented and tested, not implied.
 */

#ifndef ISW_NET_PACKET_HH
#define ISW_NET_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/address.hh"

namespace isw::net {

/** Ethernet MTU used throughout (bytes of L3 payload per frame). */
constexpr std::size_t kMtuBytes = 1500;
/** Ethernet header bytes counted on the wire. */
constexpr std::size_t kEthHeaderBytes = 14;
/** Physical-layer overhead per frame: preamble 8 + FCS 4 + IFG 12. */
constexpr std::size_t kEthPhyOverheadBytes = 24;
/** IPv4 header bytes (no options). */
constexpr std::size_t kIpv4HeaderBytes = 20;
/** UDP header bytes. */
constexpr std::size_t kUdpHeaderBytes = 8;

/** Ethernet header fields the simulator models. */
struct EthernetHeader
{
    MacAddr src;
    MacAddr dst;
    std::uint16_t ether_type = 0x0800; // IPv4
};

/** IPv4 header fields the simulator models. */
struct Ipv4Header
{
    Ipv4Addr src;
    Ipv4Addr dst;
    std::uint8_t tos = 0;
    std::uint8_t protocol = 17; // UDP
    std::uint8_t ttl = 64;
};

/** UDP header fields the simulator models. */
struct UdpHeader
{
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
};

/**
 * Reserved ToS values tagging iSwitch-plane traffic (Figure 5).
 * The paper reserves distinct ToS values for control and data; we add
 * a third for aggregated-result packets so hierarchical switches can
 * tell contributions (aggregate me) from results (forward me down).
 */
constexpr std::uint8_t kTosControl = 0xC0;
constexpr std::uint8_t kTosData = 0xC4;
constexpr std::uint8_t kTosResult = 0xC8;
/** HA replication frames (primary -> backup switch, DESIGN.md §16). */
constexpr std::uint8_t kTosRepl = 0xCC;

/** iSwitch control actions (paper Table 2, plus the slot-pool Nack
 *  extension: the switch rejects a contribution whose aggregator slot
 *  is still busy with an older segment — DESIGN.md §11). */
enum class Action : std::uint8_t {
    kJoin = 1,
    kLeave,
    kReset,
    kSetH,
    kFBcast,
    kHelp,
    kHalt,
    kAck,
    kNack,
    kHeartbeat, ///< primary -> backup liveness beat (HA, DESIGN.md §16)
    kFailover,  ///< backup -> members: re-home to me, the primary died
};

/** Printable name of a control action. */
const char *actionName(Action a);

/**
 * Wire encoding of a chunk's float words (DESIGN.md §14). Tag values
 * ride bits [63:62] of the Seg word (core::packSegWord), so kFp32
 * packets stay bit-identical to the legacy format.
 */
enum class Precision : std::uint8_t {
    kFp32 = 0, ///< raw float32 words (lossless legacy wire)
    kFp16 = 1, ///< two packed IEEE binary16 halves per word
    kInt32 = 2, ///< block-shared-exponent fixed point (ml/quantize)
};

/** Printable name of a wire precision ("fp32"/"fp16"/"int32"). */
const char *precisionName(Precision p);

/** Control message: 1-byte action plus optional 8-byte value. */
struct ControlPayload
{
    Action action = Action::kAck;
    std::uint64_t value = 0;
    bool has_value = false;
};

/**
 * One segment of a bulk float vector.
 *
 * `wire_floats` is the number of float32 slots this packet occupies on
 * the wire; `values` holds the logical floats actually carried (may be
 * fewer than wire_floats when the transport pads tiny models up to a
 * paper-scale wire size — see DESIGN.md §2).
 */
struct ChunkPayload
{
    std::uint64_t transfer_id = 0; ///< vector/round id (0 on iSwitch plane)
    std::uint64_t seg = 0;         ///< spatial offset index (Figure 5b)
    std::uint32_t wire_floats = 0; ///< float slots charged on the wire
    /**
     * Multi-job extension (DESIGN.md §11): job id and slot-reuse
     * version bit. Both ride the upper bits of the 8-byte Seg word on
     * the wire (core::packSegWord), so the packet layout and byte
     * count are unchanged and a (job=0, ver=0) packet is bit-identical
     * to the pre-extension format.
     */
    std::uint8_t job = 0; ///< owning training job (0 = sole job)
    std::uint8_t ver = 0; ///< slot-reuse cycle parity (0 when unused)
    /**
     * Quantized-wire extension (DESIGN.md §14): how `values` encodes
     * its words and, for kInt32, the block's shared exponent. Both
     * ride the upper bits of the Seg word (core::packSegWord), so a
     * kFp32 packet is bit-identical to the pre-extension format.
     */
    Precision prec = Precision::kFp32;
    std::int8_t qexp = 0; ///< shared exponent (kInt32 only, else 0)
    std::vector<float> values;     ///< wire words (size <= wire_floats)

    /** Bytes of UDP payload this chunk occupies. */
    std::size_t wireBytes(bool iswitch_plane) const
    {
        // iSwitch data packets carry an 8-byte Seg header; host-to-host
        // bulk chunks also carry the 8-byte transfer id.
        const std::size_t header = iswitch_plane ? 8 : 16;
        return header + std::size_t{wire_floats} * 4;
    }
};

/** Opaque payload for cross traffic; only its size matters. */
struct RawPayload
{
    std::uint32_t bytes = 0;
    std::uint64_t tag = 0;
};

using Payload = std::variant<std::monostate, ControlPayload, ChunkPayload,
                             RawPayload>;

/**
 * A simulated network packet. Immutable after construction by
 * convention: broadcast fans out shared_ptr copies.
 */
struct Packet
{
    EthernetHeader eth;
    Ipv4Header ip;
    UdpHeader udp;
    Payload payload;

    /** True if the ToS field marks this packet as iSwitch-plane. */
    bool isIswitchPlane() const;

    /** Bytes of UDP payload. */
    std::size_t payloadBytes() const;

    /** Total frame bytes on the wire (headers + payload + PHY). */
    std::size_t wireBytes() const;

    /** Short human-readable description for logs. */
    std::string describe() const;
};

using PacketPtr = std::shared_ptr<const Packet>;

/** Build a shared immutable packet. */
PacketPtr makePacket(Packet pkt);

/**
 * Build the frame of one UDP datagram from @p src_mac and
 * @p src_ip:@p src_port to @p dst_ip:@p dst_port, ToS @p tos: every
 * frame a host or a switch originates. @p payload (any Payload
 * alternative) is forwarded straight into the frame.
 */
template <class P>
PacketPtr
makeUdpFrame(MacAddr src_mac, Ipv4Addr src_ip, std::uint16_t src_port,
             Ipv4Addr dst_ip, std::uint16_t dst_port, std::uint8_t tos,
             P &&payload)
{
    Packet pkt;
    pkt.eth.src = src_mac;
    pkt.ip.src = src_ip;
    pkt.ip.dst = dst_ip;
    pkt.ip.tos = tos;
    pkt.udp.src_port = src_port;
    pkt.udp.dst_port = dst_port;
    pkt.payload = std::forward<P>(payload);
    return makePacket(std::move(pkt));
}

/** Maximum float32 slots per chunk on the iSwitch data plane. */
constexpr std::size_t
maxChunkFloats(bool iswitch_plane)
{
    const std::size_t header = iswitch_plane ? 8 : 16;
    return (kMtuBytes - kIpv4HeaderBytes - kUdpHeaderBytes - header) / 4;
}

static_assert(maxChunkFloats(true) == 366,
              "iSwitch data packets carry 366 float32 values at 1500 MTU");

} // namespace isw::net

#endif // ISW_NET_PACKET_HH
