/**
 * @file
 * Protocol-level walkthrough: builds a network by hand, performs the
 * real Join handshake with control packets (no admin shortcuts),
 * streams tagged gradient segments into the switch, and receives the
 * aggregated broadcast — the raw iSwitch dataplane of paper §3.2,
 * including the byte-level codec of Figure 5.
 */

#include <cstdio>

#include "core/programmable_switch.hh"
#include "core/protocol.hh"
#include "net/topology.hh"

int
main()
{
    using namespace isw;
    using net::Action;

    sim::Simulation s{42};
    net::Topology topo{s};

    // One programmable switch, three worker hosts.
    core::ProgrammableSwitchConfig sw_cfg;
    sw_cfg.ip = net::Ipv4Addr(10, 0, 0, 1);
    auto *sw = topo.addSwitch<core::ProgrammableSwitch>("sw0", 3, sw_cfg);
    std::vector<net::Host *> workers;
    for (int i = 0; i < 3; ++i) {
        auto *h = topo.addHost("w" + std::to_string(i),
                               net::Ipv4Addr(10, 0, 0,
                                             static_cast<std::uint8_t>(2 + i)));
        topo.connectHost(h, sw, static_cast<std::size_t>(i));
        workers.push_back(h);
    }

    // Wire-format sanity: the Figure 5 codec round-trips real bytes.
    net::ControlPayload join;
    join.action = Action::kJoin;
    join.has_value = true;
    join.value = core::encodeJoinValue(9999, core::MemberType::kWorker);
    const auto bytes = core::encodeControl(join);
    std::printf("Join control message encodes to %zu bytes on the wire\n",
                bytes.size());

    // Real Join handshake from every worker; count the Acks.
    int acks = 0;
    for (auto *h : workers) {
        h->setReceiveHandler([&acks, &s](net::PacketPtr pkt) {
            if (const auto *c =
                    std::get_if<net::ControlPayload>(&pkt->payload)) {
                if (c->action == Action::kAck) {
                    ++acks;
                    std::printf("  [%8llu ns] Ack received\n",
                                static_cast<unsigned long long>(s.now()));
                }
            }
        });
        h->sendTo(sw->ip(), 9000, 9999, net::kTosControl, join);
    }
    s.run();
    std::printf("membership: %zu workers, auto threshold H=%u (%d acks)\n\n",
                sw->controlPlane().table().size(),
                sw->accelerator().threshold(), acks);

    // Each worker streams a 2-segment gradient; watch aggregation.
    std::printf("streaming 2-segment gradients from 3 workers...\n");
    int results = 0;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        workers[i]->setReceiveHandler([&results, &s, i](net::PacketPtr pkt) {
            if (pkt->ip.tos != net::kTosResult)
                return;
            const auto *chunk =
                std::get_if<net::ChunkPayload>(&pkt->payload);
            if (chunk == nullptr)
                return;
            ++results;
            std::printf("  [%8llu ns] worker %zu got aggregated seg %llu: "
                        "[%.1f, %.1f]\n",
                        static_cast<unsigned long long>(s.now()), i,
                        static_cast<unsigned long long>(chunk->seg),
                        chunk->values[0], chunk->values[1]);
        });
    }
    for (std::size_t w = 0; w < workers.size(); ++w) {
        for (std::uint64_t seg = 0; seg < 2; ++seg) {
            net::ChunkPayload chunk;
            chunk.seg = seg;
            chunk.wire_floats = 2;
            chunk.values = {static_cast<float>(w + 1),
                            static_cast<float>(10 * (w + 1))};
            workers[w]->sendTo(sw->ip(), 9000, 9999, net::kTosData, chunk);
        }
    }
    s.run();
    std::printf("\n%d result packets delivered; each segment sums to "
                "[6.0, 60.0] = 1+2+3 contributions — aggregated on the fly "
                "at packet granularity.\n",
                results);

    std::printf("\nper-link traffic (both directions):\n");
    for (const auto &link : topo.links())
        std::printf("  %-12s %3llu frames delivered, %5llu bytes\n",
                    link->name().c_str(),
                    static_cast<unsigned long long>(link->delivered()),
                    static_cast<unsigned long long>(link->bytesCarried()));
    return 0;
}
