#include "dist/ps_async.hh"

#include <numeric>

namespace isw::dist {

namespace {
constexpr std::uint64_t kPullRequestBytes = 64;
/** rx_ver_ sentinel: the worker adopts the next reply it sees. */
constexpr std::uint64_t kNoVer = ~0ULL;
} // namespace

AsyncPsJob::AsyncPsJob(const JobConfig &cfg) : JobBase(cfg)
{
    fmt_ = gradientWire(/*iswitch_plane=*/false);
    wfmt_ = gradientWire(/*iswitch_plane=*/false, net::Precision::kFp32);
    srv_rx_.resize(workers_.size());
    for (auto &rx : srv_rx_)
        rx.reset(fmt_);
    for (auto &w : workers_)
        w.rx.reset(wfmt_);
    installed_version_.assign(workers_.size(), 0);
    // The server's replica starts from the same weights as everyone.
    workers_.front().agent->getWeights(srv_weights_);
    srv_opt_ = std::make_unique<ml::Adam>(cfg_.agent.lr);
    ps_rng_ = sim_->forkRng();

    push_seq_.assign(workers_.size(), 0);
    last_push_.resize(workers_.size());
    srv_applied_.assign(workers_.size(), 0);
    srv_asm_seq_.assign(workers_.size(), 0);
    rx_ver_.assign(workers_.size(), kNoVer);
    pull_outstanding_.assign(workers_.size(), 0);
    push_retx_.resize(workers_.size());
    pull_retx_.resize(workers_.size());
    for (auto &t : pull_retx_)
        configureTimer(t);
}

std::uint64_t
AsyncPsJob::stalenessVersion() const
{
    return sim_->sharded()
               ? srv_version_pub_.load(std::memory_order_relaxed)
               : srv_version_;
}

void
AsyncPsJob::onShardBarrier()
{
    // Runs on the coordinator thread between windows; the window join
    // orders it after every event the server's domain executed.
    srv_version_pub_.store(srv_version_, std::memory_order_relaxed);
}

void
AsyncPsJob::start()
{
    cluster_.ps->setReceiveHandler(
        [this](net::PacketPtr pkt) { onPsPacket(pkt); });
    for (auto &w : workers_) {
        WorkerCtx *wp = &w;
        w.host->setReceiveHandler(
            [this, wp](net::PacketPtr pkt) { onWorkerPacket(*wp, pkt); });
    }
    // Anchor each initial pull in its worker's home domain: start()
    // runs in setup context (events land in domain 0), but the pull
    // retransmission timer must be armed where done() will later run —
    // the worker's own domain. Zero-delay wrappers keep worker order.
    for (auto &w : workers_) {
        WorkerCtx *wp = &w;
        sim_->atInDomain(w.host->domain(), sim_->now(),
                         [this, wp] { pullWeights(*wp); });
    }
}

void
AsyncPsJob::pullWeights(WorkerCtx &w)
{
    if (stopped())
        return;
    WorkerCtx *wp = &w;
    pull_outstanding_[w.index] = true;
    sim_->after(cfg_.overhead.send, [this, wp] {
        wp->host->sendTo(cluster_.ps->ip(), kPsPort, kWorkerPort, /*tos=*/0,
                         net::RawPayload{kPullRequestBytes, wp->index});
        // The pull timer covers the whole request/reply exchange: if
        // either direction loses frames, re-issuing the request makes
        // the server reply with its *current* weights (possibly a
        // newer version, which the worker adopts via rx_ver_).
        pull_retx_[wp->index].arm([this, wp]() -> std::size_t {
            if (stopped() || !pull_outstanding_[wp->index])
                return 0;
            wp->host->sendTo(cluster_.ps->ip(), kPsPort, kWorkerPort,
                             /*tos=*/0,
                             net::RawPayload{kPullRequestBytes, wp->index});
            ++recovery_.retransmits;
            return 1;
        });
    });
}

void
AsyncPsJob::onPsPacket(const net::PacketPtr &pkt)
{
    if (const auto *raw = std::get_if<net::RawPayload>(&pkt->payload)) {
        // Pull request: reply with the current weights, stamped with
        // the server version so the worker can track staleness.
        const std::size_t idx = raw->tag;
        if (idx >= workers_.size())
            return;
        const std::uint64_t tid = encodeXfer(srv_version_, idx);
        net::Host *dst = workers_[idx].host;
        sim_->after(cfg_.overhead.send, [this, dst, tid] {
            sendVector(*cluster_.ps, dst->ip(), kWorkerPort, kPsPort,
                       /*tos=*/0, tid, srv_weights_, wfmt_);
        });
        return;
    }
    if (const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload)) {
        const XferId x = decodeXfer(chunk->transfer_id);
        const std::size_t idx = x.low;
        if (idx >= srv_rx_.size())
            return;
        const std::uint64_t seq = x.seq;
        if (seq <= srv_applied_[idx])
            return; // late retransmission of an applied push (seq >= 1)
        if (seq < srv_asm_seq_[idx])
            return; // stale vs the push being assembled
        if (seq > srv_asm_seq_[idx]) {
            // Newer push supersedes a partial one (the worker moved
            // on); restart assembly for it.
            srv_rx_[idx].reset();
            srv_asm_seq_[idx] = seq;
        }
        if (!srv_rx_[idx].offer(*chunk))
            return;
        srv_applied_[idx] = seq;
        // The push timer lives in the worker's domain; done() hops.
        deferDone(push_retx_[idx], workers_[idx].host);
        // Full gradient received: apply it after the update cost.
        const sim::TimeNs wu =
            cfg_.profile.sample(IterComponent::kWeightUpdate, ps_rng_);
        // lgc_end and the accumulator belong to the worker's domain:
        // attribute there, against the arrival timestamp.
        WorkerCtx *wp = &workers_[idx];
        const sim::TimeNs arrive = sim_->now();
        inDomainOf(wp->host, [wp, wu, arrive] {
            wp->metrics.add(IterComponent::kWeightUpdate, wu);
            wp->metrics.add(IterComponent::kGradAggregation,
                            arrive > wp->lgc_end ? arrive - wp->lgc_end : 0);
        });
        const ml::Vec grad = srv_rx_[idx].vector();
        srv_rx_[idx].reset();
        sim_->after(cfg_.overhead.recv + wu, [this, grad] {
            srv_opt_->step(srv_weights_, grad);
            ++srv_version_;
            noteGlobalIteration();
        });
    }
}

void
AsyncPsJob::onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (checkFailoverFrame(pkt))
        return;
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    const std::uint64_t version = decodeXfer(chunk->transfer_id).seq;
    if (rx_ver_[w.index] == kNoVer || version > rx_ver_[w.index]) {
        // First chunk of a reply, or a newer-version reply overtaking
        // a partial one (re-issued pull): restart assembly.
        w.rx.reset();
        rx_ver_[w.index] = version;
    } else if (version < rx_ver_[w.index]) {
        return; // late chunk of an older reply: drop
    }
    if (!w.rx.offer(*chunk))
        return;
    pull_retx_[w.index].done();
    pull_outstanding_[w.index] = false;
    rx_ver_[w.index] = kNoVer;
    WorkerCtx *wp = &w;
    sim_->after(cfg_.overhead.recv, [this, wp, version] {
        wp->agent->installWeights(wp->rx.vector());
        installed_version_[wp->index] = version;
        wp->rx.reset();
        lgc(*wp);
    });
}

void
AsyncPsJob::lgc(WorkerCtx &w)
{
    if (stopped())
        return;
    const std::uint64_t tw = installed_version_[w.index];
    WorkerCtx *wp = &w;
    scheduleLgc(w, [this, wp, tw] {
        // Algorithm 1's staleness rule, applied to the PS baseline for
        // a fair comparison: commit only lightly stale gradients. The
        // snapshot can lag the version we installed from (tw), so
        // clamp instead of letting unsigned subtraction wrap.
        const std::uint64_t v = stalenessVersion();
        if ((v > tw ? v - tw : 0) <= cfg_.staleness_bound) {
            const std::uint64_t seq = ++push_seq_[wp->index];
            sim_->after(cfg_.overhead.send,
                        [this, wp, seq] { pushGradient(*wp, seq); });
        }
        ++wp->round;
        pullWeights(*wp);
    });
}

void
AsyncPsJob::pushGradient(WorkerCtx &w, std::uint64_t seq)
{
    const std::uint64_t tid = encodeXfer(seq, w.index);
    if (recoveryEnabled())
        last_push_[w.index] = w.pending_grad;
    sendVector(*w.host, cluster_.ps->ip(), kPsPort, kWorkerPort, /*tos=*/0,
               tid, w.pending_grad, fmt_, /*seg_base=*/0, /*job=*/0,
               /*ver_quota=*/0, &w.ppp);
    // Guarded until the server's completion defers a done() here, or a
    // newer push supersedes this one.
    WorkerCtx *wp = &w;
    guardTransfer(
        push_retx_[w.index], w.host, cluster_.ps,
        [this, wp, seq] {
            return !stopped() && push_seq_[wp->index] == seq;
        },
        [this, i = w.index, seq] {
            std::vector<std::uint64_t> missing;
            if (srv_applied_[i] >= seq || srv_asm_seq_[i] > seq)
                return missing; // applied, or superseded by a newer push
            if (srv_asm_seq_[i] == seq)
                return srv_rx_[i].missingSegments();
            missing.resize(fmt_.segments()); // never adopted: all missing
            std::iota(missing.begin(), missing.end(), std::uint64_t{0});
            return missing;
        },
        [this, wp, tid](std::uint64_t seg) {
            sendVectorSegment(*wp->host, cluster_.ps->ip(), kPsPort,
                              kWorkerPort, /*tos=*/0, tid,
                              last_push_[wp->index], fmt_, seg,
                              /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                              &wp->ppp);
        });
}

} // namespace isw::dist
