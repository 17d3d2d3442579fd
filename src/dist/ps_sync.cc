#include "dist/ps_sync.hh"

#include <algorithm>
#include <stdexcept>

namespace isw::dist {

SyncPsJob::SyncPsJob(const JobConfig &cfg) : JobBase(cfg)
{
    const std::size_t k = cluster_.ps_shards.size();
    if (k < 1)
        throw std::logic_error("SyncPsJob: no PS host built");

    // Shard s owns logical floats [n*s/k, n*(s+1)/k) and a word-aligned
    // 1/k of the wire bytes (the last shard takes the remainder);
    // forVector raises a share too small for its slice.
    const WireFormat full = gradientWire(/*iswitch_plane=*/false);
    const std::uint64_t base_wire = (full.wire_bytes / k) & ~3ULL;
    shards_.resize(k);
    for (std::size_t s = 0; s < k; ++s) {
        Shard &sh = shards_[s];
        sh.log_begin = full.logical_floats * s / k;
        sh.log_end = full.logical_floats * (s + 1) / k;
        sh.fmt = WireFormat::forVector(
            sh.log_end - sh.log_begin,
            s + 1 == k ? full.wire_bytes - base_wire * s : base_wire,
            /*iswitch_plane=*/false, full.precision);
        sh.rx.assign(workers_.size(), VectorAssembler(sh.fmt));
        sh.ppp = PrePostProcessor(cfg_.precision);
        sh.rng = sim_->forkRng();
    }

    inbox_.resize(workers_.size());
    for (Inbox &in : inbox_)
        for (const Shard &sh : shards_)
            in.slices.emplace_back(sh.fmt);
    grad_retx_.resize(workers_.size() * k);
    result_retx_.resize(workers_.size() * k);
}

void
SyncPsJob::start()
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        cluster_.ps_shards[s]->setReceiveHandler(
            [this, s](net::PacketPtr pkt) { onShardPacket(s, pkt); });
    }
    for (auto &w : workers_) {
        WorkerCtx *wp = &w;
        w.host->setReceiveHandler(
            [this, wp](net::PacketPtr pkt) { onWorkerPacket(*wp, pkt); });
    }
    for (auto &w : workers_)
        beginRound(w);
}

void
SyncPsJob::beginRound(WorkerCtx &w)
{
    if (stopped())
        return;
    WorkerCtx *wp = &w;
    scheduleLgc(w, [this, wp] {
        // Scatter: one message per shard, each charged a send posting.
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const std::uint64_t r = wp->round;
            sim_->after(cfg_.overhead.send * (s + 1),
                        [this, wp, s, r] { sendGradSlice(*wp, s, r); });
        }
    });
}

void
SyncPsJob::sendGradSlice(WorkerCtx &w, std::size_t shard, std::uint64_t round)
{
    const Shard &sh = shards_[shard];
    net::Host *ps = cluster_.ps_shards[shard];
    // The id stamps the round, so a straggling retransmission from
    // round r can never pollute round r+1's assembler.
    const std::uint64_t tid = encodeXfer(round, w.index);
    sendVector(*w.host, ps->ip(), kPsPort, kWorkerPort, /*tos=*/0, tid,
               workerSlice(w, sh), sh.fmt, /*seg_base=*/0, /*job=*/0,
               /*ver_quota=*/0, &w.ppp);
    // Guarded until the shard's completion defers a done() here.
    WorkerCtx *wp = &w;
    guardTransfer(
        grad_retx_[w.index * shards_.size() + shard], w.host, ps,
        [this, wp, round] { return !stopped() && wp->round == round; },
        [this, wp, shard, round] {
            const Shard &sh = shards_[shard];
            return sh.round == round ? sh.rx[wp->index].missingSegments()
                                     : std::vector<std::uint64_t>{};
        },
        [this, wp, shard, ps, tid](std::uint64_t seg) {
            const Shard &sh = shards_[shard];
            sendVectorSegment(*wp->host, ps->ip(), kPsPort, kWorkerPort,
                              /*tos=*/0, tid, workerSlice(*wp, sh), sh.fmt,
                              seg, /*seg_base=*/0, /*job=*/0,
                              /*ver_quota=*/0, &wp->ppp);
        });
}

void
SyncPsJob::onShardPacket(std::size_t shard, const net::PacketPtr &pkt)
{
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    const XferId x = decodeXfer(chunk->transfer_id);
    Shard &sh = shards_[shard];
    const std::uint64_t widx = x.low;
    if (x.flag || widx >= workers_.size() || x.seq != sh.round)
        return; // result slice, or stale round (late retransmission)
    if (sh.rx[widx].offer(*chunk)) {
        // The timer lives in the worker's domain; done() hops there.
        deferDone(grad_retx_[widx * shards_.size() + shard],
                  workers_[widx].host);
        if (++sh.received == workers_.size())
            shardAggregate(shard);
    }
}

void
SyncPsJob::shardAggregate(std::size_t shard)
{
    // Conventional aggregation (Figure 8a): all slices are resident
    // before the summation starts.
    Shard &sh = shards_[shard];
    sh.sum.assign(sh.fmt.logical_floats, 0.0f);
    for (const auto &rx : sh.rx) {
        const auto &v = rx.vector();
        for (std::size_t i = 0; i < sh.sum.size(); ++i)
            sh.sum[i] += v[i];
    }
    const double sum_bytes = static_cast<double>(sh.fmt.wire_bytes) *
                             static_cast<double>(workers_.size());
    const auto sum_time = static_cast<sim::TimeNs>(
        sum_bytes / cfg_.ps_sum_bytes_per_sec * 1e9);
    // Every shard performs its slice of the weight update; slices run
    // in parallel so the visible update cost is one shard's share.
    sh.wu = cfg_.profile.sample(IterComponent::kWeightUpdate, sh.rng) /
            shards_.size();

    // Reset reception state for the next round before replies go out.
    for (auto &rx : sh.rx)
        rx.reset();
    sh.received = 0;
    const std::uint64_t round = sh.round++;

    sim_->after(cfg_.overhead.recv + sum_time + sh.wu,
                [this, shard, round] {
        // Unicast the slice to every worker; each message costs a send
        // posting, and all share the shard's single link.
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            WorkerCtx *wp = &workers_[i];
            sim_->after(cfg_.overhead.send * (i + 1),
                        [this, shard, wp, round] {
                            sendResultSlice(shard, *wp, round);
                        });
        }
    });
}

void
SyncPsJob::sendResultSlice(std::size_t shard, WorkerCtx &w,
                           std::uint64_t round)
{
    Shard &sh = shards_[shard];
    net::Host *ps = cluster_.ps_shards[shard];
    const std::uint64_t tid = encodeXfer(round, shard, /*flag=*/true);
    sendVector(*ps, w.host->ip(), kWorkerPort, kPsPort, /*tos=*/0, tid,
               sh.sum, sh.fmt, /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
               &sh.ppp);
    // Guarded until the worker's completion defers a done() here. sh.sum
    // is stable until every worker finished this round (a worker missing
    // this slice cannot have scattered the next round's slice); the
    // shard's round keeps resends off a recycled sum.
    WorkerCtx *wp = &w;
    guardTransfer(
        result_retx_[w.index * shards_.size() + shard], ps, w.host,
        [this, shard, round] {
            return !stopped() && shards_[shard].round == round + 1;
        },
        [this, wp, shard, round] {
            return wp->round == round
                       ? inbox_[wp->index].slices[shard].missingSegments()
                       : std::vector<std::uint64_t>{};
        },
        [this, wp, shard, ps, tid](std::uint64_t seg) {
            Shard &sh = shards_[shard];
            sendVectorSegment(*ps, wp->host->ip(), kWorkerPort, kPsPort,
                              /*tos=*/0, tid, sh.sum, sh.fmt, seg,
                              /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                              &sh.ppp);
        });
}

void
SyncPsJob::onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (checkFailoverFrame(pkt))
        return;
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    const XferId x = decodeXfer(chunk->transfer_id);
    const auto shard = static_cast<std::size_t>(x.low);
    if (!x.flag || shard >= shards_.size() || x.seq != w.round)
        return; // gradient slice, or stale round (late retransmission)
    Inbox &in = inbox_[w.index];
    if (in.slices[shard].offer(*chunk)) {
        // The timer lives in the shard's domain; done() hops there.
        deferDone(result_retx_[w.index * shards_.size() + shard],
                  cluster_.ps_shards[shard]);
        if (++in.done == shards_.size())
            onSlicesComplete(w);
    }
}

void
SyncPsJob::onSlicesComplete(WorkerCtx &w)
{
    WorkerCtx *wp = &w;
    sim_->after(cfg_.overhead.recv, [this, wp] {
        WorkerCtx &w = *wp;
        // Stitch the K slices into the full aggregated gradient.
        Inbox &in = inbox_[w.index];
        in.agg.resize(gradientWire(false).logical_floats);
        sim::TimeNs server_wu = 0;
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const auto &v = in.slices[s].vector();
            std::copy(v.begin(), v.end(),
                      in.agg.begin() +
                          static_cast<std::ptrdiff_t>(shards_[s].log_begin));
            in.slices[s].reset();
            // The round's critical path is the slowest shard's update.
            // Each shard's wu is safely readable here: a shard cannot
            // recycle it for round r+1 until this worker (among all)
            // scatters r+1.
            server_wu = std::max(server_wu, shards_[s].wu);
        }
        in.done = 0;

        // The server's update time is part of the round but is weight
        // update, not aggregation; split the charges accordingly.
        const sim::TimeNs elapsed = sim_->now() - w.lgc_end;
        chargeAggregation(w, elapsed > server_wu ? elapsed - server_wu : 0);
        w.metrics.add(IterComponent::kWeightUpdate, server_wu);
        w.agent->applyAggregatedGradient(
            in.agg, static_cast<std::uint32_t>(workers_.size()));
        ++w.round;
        if (w.index == 0)
            noteGlobalIteration();
        beginRound(w);
    });
}

} // namespace isw::dist
