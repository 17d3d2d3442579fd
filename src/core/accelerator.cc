#include "core/accelerator.hh"

#include <cmath>
#include <stdexcept>

namespace isw::core {

Accelerator::Accelerator(sim::Simulation &s, AcceleratorConfig cfg)
    : sim_(s), cfg_(cfg)
{
    if (cfg_.clock_hz <= 0.0 || cfg_.burst_bytes == 0)
        throw std::invalid_argument("Accelerator: bad config");
    pool_.setCapacity(cfg_.num_slots);
}

sim::TimeNs
Accelerator::procTime(std::size_t wire_bytes) const
{
    const std::size_t bursts =
        (wire_bytes + cfg_.burst_bytes - 1) / cfg_.burst_bytes;
    const double ns = static_cast<double>(bursts) * 1e9 / cfg_.clock_hz;
    return static_cast<sim::TimeNs>(std::llround(ns));
}

void
Accelerator::afterAccumulate(const net::ChunkPayload &chunk,
                             std::uint32_t src)
{
    const JobKnobs &k = knobs_[chunk.job];
    const SlotOutcome out = pool_.offer(chunk, k.threshold, src, k.dedupe);
    if (out == SlotOutcome::kCompleted)
        emitSeg(packSegWord(chunk.seg, chunk.job));
    else if (out == SlotOutcome::kAccepted && accept_)
        accept_(packSegWord(chunk.seg, chunk.job));
    else if (out == SlotOutcome::kBusy && nack_)
        nack_(chunk.job, chunk.seg, src);
}

void
Accelerator::ingest(const net::ChunkPayload &chunk, std::uint32_t src)
{
    ++ingested_;
    const sim::TimeNs now = sim_.now();
    const std::size_t bytes = 8 + std::size_t{chunk.wire_floats} * 4;
    const sim::TimeNs start = std::max(now, busy_until_);
    const sim::TimeNs done = start + procTime(bytes);
    busy_until_ = done;

    // Logic fires when the packet's last burst clears the adders.
    sim_.at(done + cfg_.fixed_latency,
            [this, chunk, src] { afterAccumulate(chunk, src); });
}

void
Accelerator::ingest(const net::PacketPtr &pkt)
{
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    ++ingested_;
    const sim::TimeNs now = sim_.now();
    const std::size_t bytes = 8 + std::size_t{chunk->wire_floats} * 4;
    const sim::TimeNs start = std::max(now, busy_until_);
    const sim::TimeNs done = start + procTime(bytes);
    busy_until_ = done;

    // Same timing as the copying overload; the closure pins the packet
    // (16 bytes, fits the event queue's inline buffer) instead of
    // copying the chunk's float vector.
    sim_.at(done + cfg_.fixed_latency, [this, pkt] {
        const auto &c = std::get<net::ChunkPayload>(pkt->payload);
        afterAccumulate(c, pkt->ip.src.bits());
    });
}

void
Accelerator::forceEmit(std::uint64_t key)
{
    if (!pool_.has(key))
        return;
    emitSeg(key);
}

void
Accelerator::emitSeg(std::uint64_t key)
{
    SegState sum = pool_.harvest(key);
    ++emitted_;
    if (emit_)
        emit_(key, std::move(sum));
}

} // namespace isw::core
