/** @file Microbenchmarks: in-switch aggregation engine hot paths. */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/accelerator.hh"
#include "core/programmable_switch.hh"
#include "core/seg_buffer.hh"
#include "net/packet_pool.hh"
#include "net/topology.hh"
#include "sim/simulation.hh"

namespace {

using namespace isw;

/** Raw per-packet accumulate cost at full MTU. */
void
BM_SegBufferAccumulate(benchmark::State &state)
{
    core::SegBufferPool pool;
    net::ChunkPayload chunk;
    chunk.seg = 0;
    chunk.wire_floats = 366;
    chunk.values.assign(366, 1.0f);
    std::uint64_t seg = 0;
    for (auto _ : state) {
        chunk.seg = seg++ % 64;
        benchmark::DoNotOptimize(pool.offer(chunk, 1u << 30));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            366 * 4);
}
BENCHMARK(BM_SegBufferAccumulate);

/** Full accelerator path: ingest -> event -> accumulate -> emit. */
void
BM_AcceleratorRound(benchmark::State &state)
{
    const auto workers = static_cast<std::uint32_t>(state.range(0));
    net::ChunkPayload chunk;
    chunk.seg = 0;
    chunk.wire_floats = 366;
    chunk.values.assign(366, 1.0f);
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulation s{1};
        core::Accelerator accel{s};
        accel.setThreshold(workers);
        std::size_t emitted = 0;
        accel.setEmit(
            [&emitted](std::uint64_t, core::SegState) { ++emitted; });
        state.ResumeTiming();
        for (std::uint32_t w = 0; w < workers; ++w)
            accel.ingest(chunk);
        s.run();
        benchmark::DoNotOptimize(emitted);
    }
}
BENCHMARK(BM_AcceleratorRound)->Arg(4)->Arg(12)->Arg(48);

/** Dedupe overhead (sync-mode loss recovery). */
void
BM_AcceleratorDedupe(benchmark::State &state)
{
    net::ChunkPayload chunk;
    chunk.seg = 0;
    chunk.wire_floats = 366;
    chunk.values.assign(366, 1.0f);
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulation s{1};
        core::Accelerator accel{s};
        accel.setThreshold(4);
        accel.setDedupe(true);
        state.ResumeTiming();
        for (std::uint32_t w = 0; w < 4; ++w)
            accel.ingest(chunk, w);
        s.run();
    }
}
BENCHMARK(BM_AcceleratorDedupe);

/**
 * One segment round on a warm star: N workers each send a full-MTU
 * contribution through their link to a ProgrammableSwitch, which folds
 * them (dedupe on, as in sync training) and fans the result back out
 * to all N. The world persists across iterations, so rounds after the
 * first run on recycled frames, slots and cache entries: the
 * send -> switch -> deliver path in steady state.
 */
void
BM_StarSegmentRound(benchmark::State &state)
{
    const auto workers = static_cast<std::size_t>(state.range(0));
    constexpr std::uint16_t kSwPort = 9000;
    constexpr std::uint16_t kWkPort = 9999;
    sim::Simulation s{1};
    net::Topology topo{s};
    core::ProgrammableSwitchConfig cfg;
    cfg.ip = net::Ipv4Addr(10, 0, 0, 1);
    auto *sw = topo.addSwitch<core::ProgrammableSwitch>("sw0", workers, cfg);
    sw->accelerator().setDedupe(true);
    std::vector<net::Host *> hosts;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < workers; ++i) {
        const net::Ipv4Addr ip(10, 0, 1, static_cast<std::uint8_t>(i + 2));
        net::Host *h = topo.addHost("w" + std::to_string(i), ip);
        topo.connectHost(h, sw, i);
        h->setReceiveHandler([&delivered](net::PacketPtr) { ++delivered; });
        sw->adminJoin(ip, kWkPort, core::MemberType::kWorker);
        hosts.push_back(h);
    }
    std::uint64_t seg = 0;
    for (auto _ : state) {
        for (net::Host *h : hosts) {
            net::ChunkPayload chunk;
            chunk.seg = seg;
            chunk.wire_floats = 366;
            chunk.values = net::PacketPool::local().acquireFloats(366);
            chunk.values.assign(366, 1.0f);
            h->sendTo(sw->ip(), kSwPort, kWkPort, net::kTosData,
                      std::move(chunk));
        }
        s.run();
        ++seg;
        benchmark::DoNotOptimize(delivered);
    }
    if (delivered != seg * workers)
        state.SkipWithError("a round lost a result");
}
BENCHMARK(BM_StarSegmentRound)->Arg(4)->Arg(12);

} // namespace
