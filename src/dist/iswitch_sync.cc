#include "dist/iswitch_sync.hh"

#include <algorithm>

namespace isw::dist {

SyncIswitchJob::SyncIswitchJob(const JobConfig &cfg,
                               const SharedWorld *world)
    : JobBase(cfg, world)
{
    fmt_ = gradientWire(/*iswitch_plane=*/true);
    for (auto &w : workers_)
        w.rx.reset(fmt_);
    help_.resize(workers_.size());
    for (auto &t : help_)
        configureTimer(t);
    next_unsent_.assign(workers_.size(), 0);
    nack_streak_.assign(workers_.size(), 0);
    if (cfg_.precision == net::Precision::kInt32)
        seg_qexp_.assign(workers_.size(),
                         std::vector<std::int8_t>(fmt_.segments(),
                                                  ml::kDefaultQexp));
    // Retransmissions must be idempotent in synchronous mode at every
    // switch that folds them: a ToR that re-aggregates its rack for a
    // Help resends its partial, and an HA backup aggregates the same
    // traffic after promotion. Only our own job's knob is touched.
    for (auto *sw : cluster_.switches())
        sw->accelerator().setDedupe(true, jobId());
}

std::uint64_t
SyncIswitchJob::segBase(const WorkerCtx &w) const
{
    // Synchronous rounds stripe the round number into the Seg index
    // (seg' = round * P + offset): distinct rounds can never mix in
    // the switch buffers, retransmissions are unambiguous, and the
    // Help cache lookup is exact. Memory stays bounded through the
    // switch's cache retention window.
    return w.round * fmt_.segments();
}

std::uint64_t
SyncIswitchJob::windowSegments() const
{
    // A window equal to the slot quota keeps every in-flight segment
    // in a distinct aggregator slot (direct-mapped seg % quota): no
    // busy drops in lossless runs. An unbounded pool or an ample quota
    // sends the whole round at once.
    const std::uint64_t q = slotQuota();
    return (q == 0 || q >= fmt_.segments()) ? fmt_.segments() : q;
}

void
SyncIswitchJob::start()
{
    for (auto &w : workers_) {
        WorkerCtx *wp = &w;
        w.host->setReceiveHandler(
            [this, wp](net::PacketPtr pkt) { onPacket(*wp, pkt); });
    }
    for (auto &w : workers_)
        beginRound(w);
}

void
SyncIswitchJob::beginRound(WorkerCtx &w)
{
    if (stopped())
        return;
    WorkerCtx *wp = &w;
    scheduleLgc(w, [this, wp] {
        sim_->after(cfg_.iswitch_overhead.send,
                    [this, wp] { sendGradient(*wp); });
    });
}

void
SyncIswitchJob::sendGradient(WorkerCtx &w)
{
    // Send the first window; results self-clock the rest.
    const std::uint64_t window = windowSegments();
    for (std::uint64_t seg = 0; seg < window; ++seg)
        sendOneSegment(w, seg);
    next_unsent_[w.index] = window;
    WorkerCtx *wp = &w;
    help_[w.index].arm([this, wp]() -> std::size_t {
        if (stopped())
            return 0;
        return requestHelp(*wp);
    });
}

void
SyncIswitchJob::sendOneSegment(WorkerCtx &w, std::uint64_t seg)
{
    sendVectorSegment(*w.host, aggIpOf(w), kSwitchPort, kWorkerPort,
                      net::kTosData, /*transfer_id=*/0, w.pending_grad,
                      fmt_, seg, segBase(w), jobId(), slotQuota(),
                      &w.ppp, qexpSpan(w));
}

void
SyncIswitchJob::advanceWindow(WorkerCtx &w)
{
    const std::uint64_t window = windowSegments();
    // Segment s+W is released only once result s arrived, so the
    // in-flight set stays within [firstMissing, firstMissing + W) and
    // every in-flight segment owns a distinct slot.
    std::uint64_t &next = next_unsent_[w.index];
    const std::uint64_t limit =
        std::min(fmt_.segments(), w.rx.firstMissing() + window);
    while (next < limit) {
        sendOneSegment(w, next);
        ++next;
    }
}

std::size_t
SyncIswitchJob::requestHelp(WorkerCtx &w)
{
    if (w.rx.complete())
        return 0;
    const net::Ipv4Addr agg = aggIpOf(w);
    // Ask the switch for each missing segment (Table 2: Help). Each
    // striped index identifies exactly one (round, offset), so a
    // cached completion can be served unambiguously. Only segments
    // already released are eligible — the rest are not lost, merely
    // unsent.
    std::size_t n = 0;
    for (std::uint64_t seg : w.rx.missingSegments()) {
        if (seg >= next_unsent_[w.index])
            continue;
        net::ControlPayload help;
        help.action = net::Action::kHelp;
        help.has_value = true;
        help.value = core::helpValue(1, segBase(w) + seg);
        w.host->sendTo(agg, kSwitchPort, kWorkerPort,
                       net::kTosControl, help);
        ++recovery_.help_requests;
        ++n;
    }
    return n;
}

void
SyncIswitchJob::resendSegment(WorkerCtx &w, std::uint64_t seg_prime)
{
    const std::uint64_t base = segBase(w);
    if (seg_prime < base || seg_prime >= base + fmt_.segments())
        return; // not our current round: ignore
    sendOneSegment(w, seg_prime - base);
    ++recovery_.retransmits;
}

void
SyncIswitchJob::onNack(WorkerCtx &w, std::uint64_t value)
{
    if (core::segWordJob(value) != jobId())
        return;
    const std::uint64_t seg_prime = core::segWordIndex(value);
    const std::uint64_t base = segBase(w);
    if (seg_prime < base || seg_prime >= base + fmt_.segments())
        return; // stale Nack from a previous round
    // The aggregator slot was still busy with an older segment. Back
    // off with an escalating delay (the occupant completes via normal
    // aggregation or Help recovery, freeing the slot) and retry.
    const std::uint32_t streak =
        std::min<std::uint32_t>(++nack_streak_[w.index], 10);
    const sim::TimeNs delay = std::min<sim::TimeNs>(
        (50 * sim::kUsec) << streak, 100 * sim::kMsec);
    WorkerCtx *wp = &w;
    sim_->after(delay, [this, wp, seg_prime] {
        if (stopped())
            return;
        const std::uint64_t b = segBase(*wp);
        if (seg_prime < b || seg_prime >= b + fmt_.segments())
            return; // round moved on while we backed off
        if (wp->rx.hasSegment(seg_prime - b))
            return; // result arrived meanwhile
        sendOneSegment(*wp, seg_prime - b);
    });
}

std::span<const std::int8_t>
SyncIswitchJob::qexpSpan(const WorkerCtx &w) const
{
    if (seg_qexp_.empty())
        return {};
    return seg_qexp_[w.index];
}

void
SyncIswitchJob::speculateNextExponents(WorkerCtx &w)
{
    if (seg_qexp_.empty())
        return;
    // Derive round r+1's per-segment exponents from round r's decoded
    // aggregate — a pure function of the broadcast every worker holds,
    // so all H workers agree without an extra negotiation round
    // (DESIGN.md §14). Round 0 used the static default from init().
    const auto &agg = w.rx.vector();
    const std::uint64_t fps = fmt_.floatsPerSeg();
    const auto h = static_cast<std::uint32_t>(workers_.size());
    auto &exps = seg_qexp_[w.index];
    for (std::uint64_t seg = 0; seg < exps.size(); ++seg) {
        const std::uint64_t begin = seg * fps;
        if (begin >= agg.size())
            break;
        const std::uint64_t n =
            std::min<std::uint64_t>(fps, agg.size() - begin);
        exps[seg] = static_cast<std::int8_t>(
            ml::speculateExponent(agg.data() + begin, n, h));
    }
}

void
SyncIswitchJob::onPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (pkt->ip.tos == net::kTosResult) {
        if (const auto *chunk =
                std::get_if<net::ChunkPayload>(&pkt->payload)) {
            if (chunk->job != jobId())
                return; // another job's result (shared fabric)
            nack_streak_[w.index] = 0;
            const bool done = w.rx.offer(*chunk, segBase(w));
            advanceWindow(w);
            if (done)
                onResultComplete(w);
        }
    } else if (pkt->ip.tos == net::kTosControl) {
        if (const auto *c = std::get_if<net::ControlPayload>(&pkt->payload)) {
            if (c->action == net::Action::kFailover) {
                handleFailover();
            } else if (c->action == net::Action::kHelp && c->has_value) {
                // The switch relays retransmission requests when a
                // segment never completed: resend our contribution if
                // the request targets our current round.
                resendSegment(w, core::helpSeg(c->value));
            } else if (c->action == net::Action::kNack && c->has_value) {
                onNack(w, c->value);
            }
        }
    }
}

void
SyncIswitchJob::onResultComplete(WorkerCtx &w)
{
    help_[w.index].done();
    WorkerCtx *wp = &w;
    sim_->after(cfg_.iswitch_overhead.recv, [this, wp] {
        WorkerCtx &w = *wp;
        chargeAggregation(w, sim_->now() - w.lgc_end);
        const sim::TimeNs wu = chargeWeightUpdate(w);
        sim_->after(wu, [this, wp] {
            WorkerCtx &w = *wp;
            w.agent->applyAggregatedGradient(
                w.rx.vector(), static_cast<std::uint32_t>(workers_.size()));
            speculateNextExponents(w);
            w.rx.reset();
            ++w.round;
            if (w.index == 0)
                noteGlobalIteration();
            beginRound(w);
        });
    });
}

} // namespace isw::dist
