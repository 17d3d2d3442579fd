#include "dist/ps_sync.hh"

namespace isw::dist {

namespace {
/**
 * Transfer ids stamp the round so a straggling retransmission from
 * round r can never pollute round r+1's assembler: gradients use
 * (round << kRoundShift) | worker, results set kResultFlag on top.
 */
constexpr std::uint64_t kRoundShift = 20;
constexpr std::uint64_t kWorkerMask = (1ULL << kRoundShift) - 1;
constexpr std::uint64_t kResultFlag = 1ULL << 63;

constexpr std::uint64_t
gradTid(std::uint64_t round, std::uint64_t worker)
{
    return (round << kRoundShift) | worker;
}

constexpr std::uint64_t
tidRound(std::uint64_t tid)
{
    return (tid & ~kResultFlag) >> kRoundShift;
}

constexpr std::uint64_t
tidWorker(std::uint64_t tid)
{
    return tid & kWorkerMask;
}
} // namespace

SyncPsJob::SyncPsJob(const JobConfig &cfg) : JobBase(cfg)
{
    fmt_ = gradientWire(/*iswitch_plane=*/false);
    ps_rx_.resize(workers_.size());
    for (auto &rx : ps_rx_)
        rx.reset(fmt_);
    for (auto &w : workers_)
        w.rx.reset(fmt_);
    ps_rng_ = sim_->forkRng();
    srv_ppp_ = makePipeline();
    grad_retx_.resize(workers_.size());
    result_retx_.resize(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        configureTimer(grad_retx_[i]);
        configureTimer(result_retx_[i]);
    }
}

void
SyncPsJob::start()
{
    cluster_.ps->setReceiveHandler(
        [this](net::PacketPtr pkt) { onPsPacket(pkt); });
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
        sim_->after(cfg_.overhead.send, [this, wp] {
            const std::uint64_t r = wp->round;
            sendVector(*wp->host, cluster_.ps->ip(), kPsPort, kWorkerPort,
                       /*tos=*/0, gradTid(r, wp->index), wp->pending_grad,
                       fmt_, /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                       wp->ppp.get());
            // Guard the uplink transfer: on timeout, re-send whatever
            // the server's assembler is still missing (the ack channel
            // is modeled as free; data resends pay full wire cost).
            grad_retx_[wp->index].arm([this, wp, r]() -> std::size_t {
                if (stopped())
                    return 0;
                // The server's assembler lives in its own domain, so
                // the timer probes it there and the resend hops back
                // to the worker's domain. The timer stays armed
                // (return 1) until the server's completion defers a
                // done() to this domain.
                inDomainOf(cluster_.ps, [this, wp, r] {
                    if (stopped() || srv_round_ != r)
                        return;
                    std::vector<std::uint64_t> missing =
                        ps_rx_[wp->index].missingSegments();
                    if (missing.empty())
                        return;
                    inDomainOf(wp->host, [this, wp, r,
                                          missing = std::move(missing)] {
                        if (stopped() || wp->round != r)
                            return;
                        for (std::uint64_t seg : missing) {
                            sendVectorSegment(
                                *wp->host, cluster_.ps->ip(), kPsPort,
                                kWorkerPort, /*tos=*/0,
                                gradTid(r, wp->index), wp->pending_grad,
                                fmt_, seg, /*seg_base=*/0, /*job=*/0,
                                /*ver_quota=*/0, wp->ppp.get());
                            ++recovery_.retransmits;
                        }
                    });
                });
                return 1;
            });
        });
    });
}

void
SyncPsJob::onPsPacket(const net::PacketPtr &pkt)
{
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr || (chunk->transfer_id & kResultFlag) != 0)
        return;
    const std::uint64_t widx = tidWorker(chunk->transfer_id);
    if (widx >= ps_rx_.size() || tidRound(chunk->transfer_id) != srv_round_)
        return; // stale round (late retransmission): drop
    if (ps_rx_[widx].offer(*chunk)) {
        // The timer lives in the worker's domain; done() hops there.
        deferDone(grad_retx_[widx], workers_[widx].host);
        if (++ps_received_ == workers_.size())
            serverAggregate();
    }
}

void
SyncPsJob::serverAggregate()
{
    // Conventional aggregation (Figure 8a): all vectors are resident
    // before the summation starts.
    ps_sum_.assign(fmt_.logical_floats, 0.0f);
    for (const auto &rx : ps_rx_) {
        const auto &v = rx.vector();
        for (std::size_t i = 0; i < ps_sum_.size(); ++i)
            ps_sum_[i] += v[i];
    }
    const double sum_bytes = static_cast<double>(fmt_.wire_bytes) *
                             static_cast<double>(workers_.size());
    const auto sum_time = static_cast<sim::TimeNs>(
        sum_bytes / cfg_.ps_sum_bytes_per_sec * 1e9);
    last_server_wu_ =
        cfg_.profile.sample(IterComponent::kWeightUpdate, ps_rng_);

    // Reset reception state for the next round before replies go out.
    for (auto &rx : ps_rx_)
        rx.reset();
    ps_received_ = 0;
    const std::uint64_t round = srv_round_++;

    sim_->after(cfg_.overhead.recv + sum_time + last_server_wu_,
                [this, round] {
        // Unicast the aggregate to every worker; each message costs a
        // send posting, and all share the server's single link.
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            WorkerCtx *wp = &workers_[i];
            sim_->after(cfg_.overhead.send * (i + 1), [this, wp, round] {
                const std::uint64_t tid =
                    kResultFlag | gradTid(round, wp->index);
                sendVector(*cluster_.ps, wp->host->ip(), kWorkerPort,
                           kPsPort, /*tos=*/0, tid, ps_sum_, fmt_,
                           /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                           srv_ppp_.get());
                // Guard the downlink transfer; ps_sum_ is stable until
                // every worker finished this round.
                result_retx_[wp->index].arm([this, wp, tid,
                                             round]() -> std::size_t {
                    if (stopped())
                        return 0;
                    // Probe the worker's assembler in its own domain,
                    // then resend from the server's domain. srv_round_
                    // guards ps_sum_ liveness: once the next aggregate
                    // overwrites it, stale resends are pointless (the
                    // receiver would drop them by round anyway).
                    inDomainOf(wp->host, [this, wp, tid, round] {
                        if (stopped() || wp->round != round)
                            return;
                        std::vector<std::uint64_t> missing =
                            wp->rx.missingSegments();
                        if (missing.empty())
                            return;
                        inDomainOf(cluster_.ps,
                                   [this, wp, tid, round,
                                    missing = std::move(missing)] {
                            if (stopped() || srv_round_ != round + 1)
                                return;
                            for (std::uint64_t seg : missing) {
                                sendVectorSegment(
                                    *cluster_.ps, wp->host->ip(),
                                    kWorkerPort, kPsPort, /*tos=*/0, tid,
                                    ps_sum_, fmt_, seg, /*seg_base=*/0,
                                    /*job=*/0, /*ver_quota=*/0,
                                    srv_ppp_.get());
                                ++recovery_.retransmits;
                            }
                        });
                    });
                    return 1;
                });
            });
        }
    });
}

void
SyncPsJob::onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (checkFailoverFrame(pkt))
        return;
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr || (chunk->transfer_id & kResultFlag) == 0)
        return;
    if (tidWorker(chunk->transfer_id) != w.index ||
        tidRound(chunk->transfer_id) != w.round)
        return; // stale round or misrouted: drop
    if (w.rx.offer(*chunk)) {
        // The timer was armed in the server's domain; done() hops there.
        deferDone(result_retx_[w.index], cluster_.ps);
        onWeightsComplete(w);
    }
}

void
SyncPsJob::onWeightsComplete(WorkerCtx &w)
{
    WorkerCtx *wp = &w;
    sim_->after(cfg_.overhead.recv, [this, wp] {
        WorkerCtx &w = *wp;
        // The server's update time is part of the round but is weight
        // update, not aggregation; split the charges accordingly.
        const sim::TimeNs elapsed = sim_->now() - w.lgc_end;
        const sim::TimeNs agg =
            elapsed > last_server_wu_ ? elapsed - last_server_wu_ : 0;
        chargeAggregation(w, agg);
        w.metrics.add(IterComponent::kWeightUpdate, last_server_wu_);
        w.agent->applyAggregatedGradient(
            w.rx.vector(), static_cast<std::uint32_t>(workers_.size()));
        w.rx.reset();
        ++w.round;
        if (w.index == 0)
            noteGlobalIteration();
        beginRound(w);
    });
}

} // namespace isw::dist
