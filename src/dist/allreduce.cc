#include "dist/allreduce.hh"

#include <numeric>
#include <stdexcept>

namespace isw::dist {

SyncAllReduceJob::SyncAllReduceJob(const JobConfig &cfg) : JobBase(cfg)
{
    const std::size_t n = workers_.size();
    if (n < 2)
        throw std::invalid_argument("AllReduce needs at least 2 workers");

    const WireFormat fmt = gradientWire(/*iswitch_plane=*/false);
    // Split logical floats evenly; split wire bytes evenly at 4-byte
    // granularity with the remainder on the last chunk.
    chunks_.resize(n);
    const std::uint64_t base_wire = (fmt.wire_bytes / n) & ~3ULL;
    std::uint64_t wire_used = 0;
    for (std::size_t c = 0; c < n; ++c) {
        chunks_[c].log_begin = fmt.logical_floats * c / n;
        chunks_[c].log_end = fmt.logical_floats * (c + 1) / n;
        chunks_[c].wire_bytes =
            c + 1 == n ? fmt.wire_bytes - wire_used : base_wire;
        wire_used += chunks_[c].wire_bytes;
        // The wire share must fit the logical share at our precision.
        const std::uint64_t need = WireFormat::minWireBytes(
            fmt.precision, chunks_[c].log_end - chunks_[c].log_begin);
        if (chunks_[c].wire_bytes < need)
            chunks_[c].wire_bytes = need;
    }
    ring_.resize(n);
    out_.resize(n);
}

std::size_t
SyncAllReduceJob::sendChunkAt(std::size_t i, std::size_t step) const
{
    const std::size_t n = workers_.size();
    if (step < n - 1) // scatter-reduce
        return (i + n - step % n) % n;
    const std::size_t s = step - (n - 1); // all-gather
    return (i + 1 + n - s % n) % n;
}

std::size_t
SyncAllReduceJob::recvChunkAt(std::size_t i, std::size_t step) const
{
    const std::size_t n = workers_.size();
    // What my predecessor sends at this step.
    return sendChunkAt((i + n - 1) % n, step);
}

void
SyncAllReduceJob::start()
{
    for (auto &w : workers_) {
        WorkerCtx *wp = &w;
        w.host->setReceiveHandler(
            [this, wp](net::PacketPtr pkt) { onWorkerPacket(*wp, pkt); });
    }
    for (auto &w : workers_)
        beginRound(w);
}

void
SyncAllReduceJob::beginRound(WorkerCtx &w)
{
    if (stopped())
        return;
    WorkerCtx *wp = &w;
    scheduleLgc(w, [this, wp] { startRing(*wp); });
}

void
SyncAllReduceJob::startRing(WorkerCtx &w)
{
    RingState &rs = ring_[w.index];
    rs.acc = w.pending_grad;
    rs.step = 0;
    rs.active = true;
    sendStep(w, 0);
    tryAdvance(w);
}

void
SyncAllReduceJob::sendStep(WorkerCtx &w, std::size_t step)
{
    RingState &rs = ring_[w.index];
    const std::size_t chunk = sendChunkAt(w.index, step);
    const ChunkSpec &cs = chunks_[chunk];
    const std::size_t rcv = (w.index + 1) % workers_.size();
    const WireFormat cfmt =
        WireFormat::forVector(cs.log_end - cs.log_begin, cs.wire_bytes,
                              /*iswitch_plane=*/false, cfg_.precision);
    WorkerCtx *wp = &w;
    net::Host *dst = workers_[rcv].host;
    const std::uint64_t tid = encodeXfer(rs.round, step);
    sim_->after(cfg_.overhead.send, [this, wp, rcv, dst, cs, cfmt, tid] {
        const RingState &rs = ring_[wp->index];
        sendVector(*wp->host, dst->ip(), kWorkerPort, kWorkerPort,
                   /*tos=*/0, tid,
                   std::span<const float>(rs.acc.data() + cs.log_begin,
                                          cs.log_end - cs.log_begin),
                   cfmt, /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                   &wp->ppp);
        if (!recoveryEnabled())
            return;
        // Snapshot the chunk as sent: rs.acc mutates as later steps
        // fold into it, so resends must read the copy.
        Outgoing &o = out_[wp->index][tid];
        o.data.assign(rs.acc.data() + cs.log_begin,
                      rs.acc.data() + cs.log_end);
        o.fmt = cfmt;
        // Guarded until the successor's completion releases the entry.
        // Transfer ids never repeat, so a live entry is this one.
        const Outgoing *op = &o;
        guardTransfer(
            o.timer, wp->host, dst,
            [this, wp, tid] {
                return !stopped() && out_[wp->index].count(tid) != 0;
            },
            [this, rcv, tid, segs = cfmt.segments()] {
                const RingState &rr = ring_[rcv];
                std::vector<std::uint64_t> missing;
                if (consumed(rr, tid))
                    return missing; // its release is already in flight
                auto it = rr.inflight.find(tid);
                if (it != rr.inflight.end())
                    return it->second.missingSegments();
                missing.resize(segs); // nothing has arrived yet
                std::iota(missing.begin(), missing.end(), std::uint64_t{0});
                return missing;
            },
            [wp, dst, tid, op](std::uint64_t seg) {
                sendVectorSegment(*wp->host, dst->ip(), kWorkerPort,
                                  kWorkerPort, /*tos=*/0, tid, op->data,
                                  op->fmt, seg, /*seg_base=*/0, /*job=*/0,
                                  /*ver_quota=*/0, &wp->ppp);
            });
    });
}

bool
SyncAllReduceJob::consumed(const RingState &rs, std::uint64_t tid)
{
    const XferId x = decodeXfer(tid);
    return x.seq < rs.round || (x.seq == rs.round && x.low < rs.step);
}

void
SyncAllReduceJob::onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (checkFailoverFrame(pkt))
        return;
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    RingState &rs = ring_[w.index];
    // Stale gating: a consumed step's transfer can only reappear as a
    // late retransmission or channel duplicate — never re-assemble it.
    if (consumed(rs, chunk->transfer_id))
        return;
    auto it = rs.inflight.find(chunk->transfer_id);
    if (it == rs.inflight.end()) {
        // Derive which step this transfer is to size its assembler.
        const std::uint64_t step = decodeXfer(chunk->transfer_id).low;
        if (step >= totalSteps())
            return;
        const std::size_t c = recvChunkAt(w.index, step);
        const ChunkSpec &cs = chunks_[c];
        const WireFormat cfmt =
            WireFormat::forVector(cs.log_end - cs.log_begin, cs.wire_bytes,
                                  /*iswitch_plane=*/false, cfg_.precision);
        it = rs.inflight.emplace(chunk->transfer_id, VectorAssembler(cfmt))
                 .first;
    }
    if (it->second.offer(*chunk)) {
        // Transfer complete: release the predecessor's retransmission
        // guard for it. The guard (timer + Outgoing entry) belongs to
        // the predecessor's domain, so the release hops there;
        // transfer ids never repeat, so a stale lookup is a harmless
        // no-op.
        if (recoveryEnabled()) {
            const std::size_t pred =
                (w.index + workers_.size() - 1) % workers_.size();
            const std::uint64_t tid = chunk->transfer_id;
            inDomainOf(workers_[pred].host, [this, pred, tid] {
                auto oit = out_[pred].find(tid);
                if (oit != out_[pred].end()) {
                    oit->second.timer.done();
                    out_[pred].erase(oit);
                }
            });
        }
        tryAdvance(w);
    }
}

void
SyncAllReduceJob::tryAdvance(WorkerCtx &w)
{
    RingState &rs = ring_[w.index];
    if (rs.processing || !rs.active)
        return;
    const std::uint64_t tid = encodeXfer(rs.round, rs.step);
    auto it = rs.inflight.find(tid);
    if (it == rs.inflight.end() || !it->second.complete())
        return;

    rs.processing = true;
    WorkerCtx *wp = &w;
    sim_->after(cfg_.overhead.recv, [this, wp, tid] {
        WorkerCtx &w = *wp;
        RingState &rs = ring_[w.index];
        auto it = rs.inflight.find(tid);
        if (it == rs.inflight.end())
            throw std::logic_error("AllReduce: step transfer vanished");
        const std::vector<float> &recv = it->second.vector();
        const std::size_t c = recvChunkAt(w.index, rs.step);
        const ChunkSpec &cs = chunks_[c];
        if (rs.step < workers_.size() - 1) {
            // Scatter-reduce: fold into the working copy.
            for (std::uint64_t i = 0; i < recv.size(); ++i)
                rs.acc[cs.log_begin + i] += recv[i];
        } else {
            // All-gather: adopt the fully reduced chunk.
            for (std::uint64_t i = 0; i < recv.size(); ++i)
                rs.acc[cs.log_begin + i] = recv[i];
        }
        rs.inflight.erase(it);
        ++rs.step;
        rs.processing = false;
        if (rs.step == totalSteps()) {
            ringDone(w);
        } else {
            sendStep(w, rs.step);
            tryAdvance(w);
        }
    });
}

void
SyncAllReduceJob::ringDone(WorkerCtx &w)
{
    ring_[w.index].active = false;
    chargeAggregation(w, sim_->now() - w.lgc_end);
    const sim::TimeNs wu = chargeWeightUpdate(w);
    WorkerCtx *wp = &w;
    sim_->after(wu, [this, wp] {
        WorkerCtx &w = *wp;
        RingState &rs = ring_[w.index];
        w.agent->applyAggregatedGradient(
            rs.acc, static_cast<std::uint32_t>(workers_.size()));
        ++rs.round;
        rs.step = 0; // keep the stale-transfer gate aligned with round
        ++w.round;
        if (w.index == 0)
            noteGlobalIteration();
        beginRound(w);
    });
}

} // namespace isw::dist
