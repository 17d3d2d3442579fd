#include "dist/iswitch_async.hh"

#include <stdexcept>

namespace isw::dist {

AsyncIswitchJob::AsyncIswitchJob(const JobConfig &cfg,
                                 const SharedWorld *world)
    : JobBase(cfg, world)
{
    fmt_ = gradientWire(/*iswitch_plane=*/true);
    rx_.resize(workers_.size());
    for (auto &rx : rx_)
        rx.reset(fmt_);
    lwu_busy_.assign(workers_.size(), 0);
    if (cfg_.precision == net::Precision::kInt32)
        static_qexp_.assign(fmt_.segments(), ml::kDefaultQexp);
    sent_.assign(workers_.size(), 0);
    last_sent_.resize(workers_.size());
    watch_.resize(workers_.size());
    for (auto &t : watch_)
        configureTimer(t);
    h_ = cfg_.agg_threshold == 0
             ? static_cast<std::uint32_t>(workers_.size())
             : cfg_.agg_threshold;
    // Async mode reuses segment indices 0..P-1 every iteration with
    // contributor dedupe off (cross-iteration mixing is by design), so
    // the per-slot floor/version machinery of a bounded pool cannot
    // distinguish a legitimate late contribution from a stale one. A
    // finite slot quota therefore must cover the whole tensor.
    if (slotQuota() != 0 && slotQuota() < fmt_.segments())
        throw std::invalid_argument(
            "AsyncIswitchJob: slot quota smaller than the tensor's "
            "segment count (async iSwitch cannot stream a bounded "
            "pool; grant at least segments() slots)");
    if (cfg_.agg_threshold != 0) {
        // The control plane's SetH: pin our job's H below its member
        // count at the leaves, the root and the backup. A fat-tree's
        // AGGs keep their automatic H.
        std::vector<core::ProgrammableSwitch *> pinned = cluster_.leaves;
        if (cluster_.root != cluster_.leaves.front())
            pinned.push_back(cluster_.root);
        if (cluster_.backup != nullptr)
            pinned.push_back(cluster_.backup);
        for (auto *sw : pinned)
            sw->setManualThreshold(h_, jobId());
    }
}

void
AsyncIswitchJob::start()
{
    for (auto &w : workers_) {
        WorkerCtx *wp = &w;
        w.host->setReceiveHandler(
            [this, wp](net::PacketPtr pkt) { onWorkerPacket(*wp, pkt); });
    }
    for (auto &w : workers_)
        lgcLoop(w);
}

void
AsyncIswitchJob::lgcLoop(WorkerCtx &w)
{
    if (stopped())
        return;
    const std::uint64_t tw = w.ts; // Algorithm 1: copy iteration index
    WorkerCtx *wp = &w;
    scheduleLgc(w, [this, wp, tw] {
        WorkerCtx &w = *wp;
        // Staleness check before commit (Algorithm 1 line 8), plus
        // send-side backpressure: a gradient's staleness at *apply*
        // time is at least the number of our commits not yet applied,
        // so committing past that bound only produces stale updates
        // and unbounded queueing when aggregation lags the pipeline.
        const bool fresh = w.ts - tw <= cfg_.staleness_bound;
        // A worker's commit count can fall *below* the global round
        // count (other workers' surplus commits complete rounds it
        // skipped), so the backlog must saturate at zero.
        const std::uint64_t backlog =
            sent_[w.index] > w.ts ? sent_[w.index] - w.ts : 0;
        const bool backlog_ok = backlog <= cfg_.staleness_bound;
        if (fresh && backlog_ok) {
            committed_.fetch_add(1, std::memory_order_relaxed);
            ++sent_[w.index];
            // Nonblocking send (line 9).
            ml::Vec grad = w.pending_grad; // snapshot for transmission
            // Aggregation target resolved at send time, not commit
            // time, so a failover between the two re-homes the send.
            sim_->after(cfg_.iswitch_overhead.send, [this, wp, grad] {
                sendVector(*wp->host, aggIpOf(*wp), kSwitchPort, kWorkerPort,
                           net::kTosData, /*transfer_id=*/0, grad, fmt_,
                           /*seg_base=*/0, jobId(), /*ver_quota=*/0,
                           &wp->ppp, static_qexp_);
                if (recoveryEnabled()) {
                    last_sent_[wp->index] = grad;
                    rearmWatch(*wp);
                }
            });
        } else {
            skipped_.fetch_add(1, std::memory_order_relaxed);
        }
        ++w.round;
        lgcLoop(w); // pipeline: the next LGC starts immediately
    });
}

void
AsyncIswitchJob::onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (checkFailoverFrame(pkt))
        return;
    if (pkt->ip.tos != net::kTosResult)
        return;
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr)
        return;
    if (chunk->job != jobId())
        return; // another job's broadcast (shared fabric)
    rx_[w.index].offer(*chunk);
    drainLwu(w);
}

void
AsyncIswitchJob::drainLwu(WorkerCtx &w)
{
    if (lwu_busy_[w.index] || !rx_[w.index].frontComplete())
        return;
    lwu_busy_[w.index] = true;
    const ml::Vec sum = rx_[w.index].popFront();
    const sim::TimeNs wu = chargeWeightUpdate(w);
    WorkerCtx *wp = &w;
    sim_->after(cfg_.iswitch_overhead.recv + wu, [this, wp, sum] {
        WorkerCtx &w = *wp;
        // Algorithm 1 LWU: ws <- ws - lr * gsum / H.
        w.agent->applyAggregatedGradient(sum, h_);
        ++w.ts;
        if (w.index == 0)
            noteGlobalIteration();
        lwu_busy_[w.index] = false;
        if (recoveryEnabled())
            rearmWatch(w);
        drainLwu(w);
    });
}

void
AsyncIswitchJob::rearmWatch(WorkerCtx &w)
{
    // Outstanding results exist while our commit count runs ahead of
    // the applied-version counter: some broadcast we depend on has not
    // landed yet. Re-arming on every apply treats progress as an ack.
    if (sent_[w.index] <= w.ts) {
        watch_[w.index].done();
        return;
    }
    WorkerCtx *wp = &w;
    watch_[w.index].arm([this, wp]() -> std::size_t {
        if (stopped() || sent_[wp->index] <= wp->ts)
            return 0;
        return nudge(*wp);
    });
}

std::size_t
AsyncIswitchJob::nudge(WorkerCtx &w)
{
    // The front round stalled: either the result broadcast was lost to
    // us, or contributions were lost upstream and the segment never
    // reached H. FBcast first flushes whatever partial the switch
    // holds (async mode has no contributor dedupe, so emitting before
    // we re-contribute avoids double-counting ourselves in one
    // emission); then re-contribute our latest gradient so a starved
    // segment refills. Repeated nudges from every stalled worker drive
    // the count back to H even under a global stall.
    const std::vector<std::uint64_t> missing =
        rx_[w.index].missingFront();
    const net::Ipv4Addr agg = aggIpOf(w);
    for (std::uint64_t seg : missing) {
        net::ControlPayload fb;
        fb.action = net::Action::kFBcast;
        fb.has_value = true;
        fb.value = seg;
        w.host->sendTo(agg, kSwitchPort, kWorkerPort,
                       net::kTosControl, fb);
        ++recovery_.fbcasts;
        if (!last_sent_[w.index].empty()) {
            sendVectorSegment(*w.host, agg, kSwitchPort,
                              kWorkerPort, net::kTosData,
                              /*transfer_id=*/0, last_sent_[w.index],
                              fmt_, seg, /*seg_base=*/0, jobId(),
                              /*ver_quota=*/0, &w.ppp, static_qexp_);
            ++recovery_.retransmits;
        }
    }
    return missing.size();
}

void
AsyncIswitchJob::collectExtras(RunResult &res) const
{
    JobBase::collectExtras(res);
    res.extras["gradients_committed"] =
        static_cast<double>(gradientsCommitted());
    res.extras["gradients_skipped"] =
        static_cast<double>(gradientsSkipped());
}

} // namespace isw::dist
