#include "core/replication.hh"

#include <bit>

#include "core/accelerator.hh"
#include "core/protocol.hh"
#include "net/packet_pool.hh"

namespace isw::core {

ReplicatedAccelerator::ReplicatedAccelerator(sim::Simulation &sim,
                                             Accelerator &accel,
                                             ReplicationConfig cfg,
                                             SendFn send)
    : sim_(sim), accel_(accel), cfg_(cfg), send_(std::move(send))
{
}

void
ReplicatedAccelerator::sendState(std::uint64_t key)
{
    const SegState *st = accel_.pool().peek(key);
    if (st == nullptr)
        return; // completed or reclaimed since it was dirtied
    net::ChunkPayload ch;
    ch.transfer_id = packReplState(
        static_cast<std::uint32_t>(st->contributors.size()), st->count);
    ch.seg = segWordIndex(key);
    ch.job = segWordJob(key);
    ch.wire_floats = st->wire_floats;
    ch.prec = st->prec;
    ch.qexp = st->qexp;
    // The full contributor set rides after the accumulator words
    // (IPv4 bits bit-cast into float slots). Wire accounting charges
    // wire_floats only — the set is the real switch's per-slot
    // contributor bitmap, which fits the slot tag word.
    ch.values = net::PacketPool::local().acquireFloats(
        st->acc.size() + st->contributors.size());
    ch.values.assign(st->acc.begin(), st->acc.end());
    st->contributors.forEach([&ch](std::uint32_t c) {
        ch.values.push_back(std::bit_cast<float>(c));
    });
    send_(std::move(ch));
    ++stats_.state_frames;
}

void
ReplicatedAccelerator::onAccept(std::uint64_t key)
{
    if (cfg_.mode == ReplicationMode::kPerHarvest) {
        sendState(key);
        return;
    }
    if (dirty_.insert(key).second)
        dirty_order_.push_back(key);
    if (sim_.now() - last_flush_ >= cfg_.staleness_window)
        flushDirty();
}

void
ReplicatedAccelerator::flushDirty()
{
    last_flush_ = sim_.now();
    if (dirty_order_.empty())
        return;
    for (const std::uint64_t key : dirty_order_)
        sendState(key);
    dirty_order_.clear();
    dirty_.clear();
}

void
ReplicatedAccelerator::pump()
{
    if (cfg_.mode != ReplicationMode::kBatchedLazy)
        return;
    if (sim_.now() - last_flush_ >= cfg_.staleness_window)
        flushDirty();
}

void
ReplicatedAccelerator::onResult(std::uint64_t key,
                                const std::vector<float> &values,
                                std::uint32_t wire_floats,
                                std::uint32_t count, std::uint64_t seq,
                                net::Precision prec, std::int8_t qexp)
{
    // Results replicate immediately in both modes: they advance the
    // backup's completion floor, which is what post-failover Help
    // requests are served from.
    if (dirty_.erase(key) != 0) {
        for (auto it = dirty_order_.begin(); it != dirty_order_.end(); ++it) {
            if (*it == key) {
                dirty_order_.erase(it);
                break;
            }
        }
    }
    net::ChunkPayload ch;
    ch.transfer_id = packReplResult(seq, count);
    ch.seg = segWordIndex(key);
    ch.job = segWordJob(key);
    ch.wire_floats = wire_floats;
    ch.prec = prec;
    ch.qexp = qexp;
    ch.values = net::PacketPool::local().acquireFloats(values.size());
    ch.values.assign(values.begin(), values.end());
    send_(std::move(ch));
    ++stats_.result_frames;
}

void
ReplicatedAccelerator::onControl(net::Action action,
                                 std::uint32_t member_ip_bits,
                                 std::uint64_t value)
{
    net::ControlPayload c;
    c.action = action;
    c.has_value = true;
    c.value = packReplMember(member_ip_bits, value);
    send_(c);
    ++stats_.member_frames;
}

} // namespace isw::core
