#include "dist/ps_sharded.hh"

#include <algorithm>
#include <stdexcept>

namespace isw::dist {

namespace {
/**
 * Transfer ids stamp the round so late retransmissions from round r
 * cannot pollute round r+1: gradients use (round << kRoundShift) |
 * worker, shard results are (round << kRoundShift) | shard with
 * kResultFlag set.
 */
constexpr std::uint64_t kRoundShift = 20;
constexpr std::uint64_t kIdMask = (1ULL << kRoundShift) - 1;
constexpr std::uint64_t kResultFlag = 1ULL << 63;

constexpr std::uint64_t
makeTid(std::uint64_t round, std::uint64_t id)
{
    return (round << kRoundShift) | id;
}

constexpr std::uint64_t
tidRound(std::uint64_t tid)
{
    return (tid & ~kResultFlag) >> kRoundShift;
}

constexpr std::uint64_t
tidId(std::uint64_t tid)
{
    return tid & kIdMask;
}
} // namespace

SyncShardedPsJob::SyncShardedPsJob(const JobConfig &cfg) : JobBase(cfg)
{
    const std::size_t k = cluster_.ps_shards.size();
    if (k < 1)
        throw std::logic_error("SyncShardedPsJob: no PS shards built");

    const WireFormat full = gradientWire(/*iswitch_plane=*/false);
    shards_.resize(k);
    const std::uint64_t base_wire = (full.wire_bytes / k) & ~3ULL;
    std::uint64_t wire_used = 0;
    for (std::size_t s = 0; s < k; ++s) {
        ShardSpec &sp = shards_[s];
        sp.log_begin = full.logical_floats * s / k;
        sp.log_end = full.logical_floats * (s + 1) / k;
        sp.wire_bytes =
            s + 1 == k ? full.wire_bytes - wire_used : base_wire;
        wire_used += sp.wire_bytes;
        const std::uint64_t need = WireFormat::minWireBytes(
            full.precision, sp.log_end - sp.log_begin);
        if (sp.wire_bytes < need)
            sp.wire_bytes = need;
        sp.fmt = WireFormat::forVector(sp.log_end - sp.log_begin,
                                       sp.wire_bytes,
                                       /*iswitch_plane=*/false,
                                       full.precision);
    }

    state_.resize(k);
    for (auto &st : state_) {
        st.rx.resize(workers_.size());
        st.ppp = makePipeline();
    }
    for (std::size_t s = 0; s < k; ++s)
        for (auto &rx : state_[s].rx)
            rx.reset(shards_[s].fmt);

    worker_rx_.resize(workers_.size());
    agg_.resize(workers_.size());
    slices_done_.assign(workers_.size(), 0);
    for (auto &per_shard : worker_rx_) {
        per_shard.resize(k);
        for (std::size_t s = 0; s < k; ++s)
            per_shard[s].reset(shards_[s].fmt);
    }
    shard_rng_.reserve(k);
    for (std::size_t s = 0; s < k; ++s)
        shard_rng_.push_back(sim_->forkRng());
    shard_wu_.assign(k, 0);
    grad_retx_.resize(workers_.size() * k);
    result_retx_.resize(workers_.size() * k);
    for (auto &t : grad_retx_)
        configureTimer(t);
    for (auto &t : result_retx_)
        configureTimer(t);
}

void
SyncShardedPsJob::start()
{
    for (std::size_t s = 0; s < cluster_.ps_shards.size(); ++s) {
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
SyncShardedPsJob::beginRound(WorkerCtx &w)
{
    if (stopped())
        return;
    WorkerCtx *wp = &w;
    scheduleLgc(w, [this, wp] {
        // Scatter: one message per shard, each charged a send posting.
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const ShardSpec &sp = shards_[s];
            const std::uint64_t r = wp->round;
            sim_->after(cfg_.overhead.send * (s + 1),
                        [this, wp, s, sp, r] {
                const std::span<const float> slice(
                    wp->pending_grad.data() + sp.log_begin,
                    sp.log_end - sp.log_begin);
                sendVector(*wp->host, cluster_.ps_shards[s]->ip(),
                           kPsPort, kWorkerPort, /*tos=*/0,
                           makeTid(r, wp->index), slice, sp.fmt,
                           /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                           wp->ppp.get());
                // Guard this slice: the free-ack model reads the
                // shard's assembler to learn what is still missing.
                grad_retx_[wp->index * shards_.size() + s].arm(
                    [this, wp, s, r]() -> std::size_t {
                        if (stopped())
                            return 0;
                        // Probe the shard's assembler in its home
                        // domain, hop back to the worker's domain to
                        // resend.
                        inDomainOf(cluster_.ps_shards[s],
                                   [this, wp, s, r] {
                            if (stopped() || state_[s].round != r)
                                return;
                            std::vector<std::uint64_t> missing =
                                state_[s].rx[wp->index].missingSegments();
                            if (missing.empty())
                                return;
                            inDomainOf(wp->host,
                                       [this, wp, s, r,
                                        missing = std::move(missing)] {
                                if (stopped() || wp->round != r)
                                    return;
                                const ShardSpec &sp = shards_[s];
                                for (std::uint64_t seg : missing) {
                                    sendVectorSegment(
                                        *wp->host,
                                        cluster_.ps_shards[s]->ip(),
                                        kPsPort, kWorkerPort, /*tos=*/0,
                                        makeTid(r, wp->index),
                                        std::span<const float>(
                                            wp->pending_grad.data() +
                                                sp.log_begin,
                                            sp.log_end - sp.log_begin),
                                        sp.fmt, seg, /*seg_base=*/0,
                                        /*job=*/0, /*ver_quota=*/0,
                                        wp->ppp.get());
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
SyncShardedPsJob::onShardPacket(std::size_t shard, const net::PacketPtr &pkt)
{
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr || (chunk->transfer_id & kResultFlag) != 0)
        return;
    ShardState &st = state_[shard];
    const std::uint64_t widx = tidId(chunk->transfer_id);
    if (widx >= workers_.size() ||
        tidRound(chunk->transfer_id) != st.round)
        return; // stale round (late retransmission): drop
    if (st.rx[widx].offer(*chunk)) {
        // The timer lives in the worker's domain; done() hops there.
        deferDone(grad_retx_[widx * shards_.size() + shard],
                  workers_[widx].host);
        if (++st.received == workers_.size())
            shardAggregate(shard);
    }
}

void
SyncShardedPsJob::shardAggregate(std::size_t shard)
{
    ShardState &st = state_[shard];
    const ShardSpec &sp = shards_[shard];
    st.sum.assign(sp.fmt.logical_floats, 0.0f);
    for (const auto &rx : st.rx) {
        const auto &v = rx.vector();
        for (std::size_t i = 0; i < st.sum.size(); ++i)
            st.sum[i] += v[i];
    }
    const double sum_bytes = static_cast<double>(sp.wire_bytes) *
                             static_cast<double>(workers_.size());
    const auto sum_time = static_cast<sim::TimeNs>(
        sum_bytes / cfg_.ps_sum_bytes_per_sec * 1e9);
    // Every shard performs its slice of the weight update; slices run
    // in parallel so the visible update cost is one shard's share.
    // Each shard samples its own rng fork and publishes into its own
    // slot (single-writer per domain).
    const sim::TimeNs wu_share =
        cfg_.profile.sample(IterComponent::kWeightUpdate,
                            shard_rng_[shard]) /
        shards_.size();
    shard_wu_[shard] = wu_share;

    for (auto &rx : st.rx)
        rx.reset();
    st.received = 0;
    const std::uint64_t round = st.round++;

    sim_->after(cfg_.overhead.recv + sum_time + wu_share,
                [this, shard, round] {
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            WorkerCtx *wp = &workers_[i];
            sim_->after(cfg_.overhead.send * (i + 1),
                        [this, shard, wp, round] {
                const std::uint64_t tid =
                    kResultFlag | makeTid(round, shard);
                sendVector(*cluster_.ps_shards[shard], wp->host->ip(),
                           kWorkerPort, kPsPort, /*tos=*/0, tid,
                           state_[shard].sum, shards_[shard].fmt,
                           /*seg_base=*/0, /*job=*/0, /*ver_quota=*/0,
                           state_[shard].ppp.get());
                // Guard the result slice; st.sum is stable until every
                // worker finished this round (a worker missing this
                // slice cannot have scattered the next round's slice).
                result_retx_[wp->index * shards_.size() + shard].arm(
                    [this, shard, wp, tid, round]() -> std::size_t {
                        if (stopped())
                            return 0;
                        // Probe the worker's assembler in its domain,
                        // then resend from the shard's domain. The
                        // round guard on the shard side keeps stale
                        // resends off a recycled st.sum.
                        inDomainOf(wp->host, [this, shard, wp, tid,
                                              round] {
                            if (stopped() || wp->round != round)
                                return;
                            std::vector<std::uint64_t> missing =
                                worker_rx_[wp->index][shard]
                                    .missingSegments();
                            if (missing.empty())
                                return;
                            inDomainOf(cluster_.ps_shards[shard],
                                       [this, shard, wp, tid, round,
                                        missing = std::move(missing)] {
                                if (stopped() ||
                                    state_[shard].round != round + 1)
                                    return;
                                for (std::uint64_t seg : missing) {
                                    sendVectorSegment(
                                        *cluster_.ps_shards[shard],
                                        wp->host->ip(), kWorkerPort,
                                        kPsPort, /*tos=*/0, tid,
                                        state_[shard].sum,
                                        shards_[shard].fmt, seg,
                                        /*seg_base=*/0, /*job=*/0,
                                        /*ver_quota=*/0,
                                        state_[shard].ppp.get());
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
SyncShardedPsJob::onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt)
{
    if (checkFailoverFrame(pkt))
        return;
    const auto *chunk = std::get_if<net::ChunkPayload>(&pkt->payload);
    if (chunk == nullptr || (chunk->transfer_id & kResultFlag) == 0)
        return;
    const auto shard =
        static_cast<std::size_t>(tidId(chunk->transfer_id));
    if (shard >= shards_.size() ||
        tidRound(chunk->transfer_id) != w.round)
        return; // stale round (late retransmission): drop
    if (worker_rx_[w.index][shard].offer(*chunk)) {
        // The timer lives in the shard's domain; done() hops there.
        deferDone(result_retx_[w.index * shards_.size() + shard],
                  cluster_.ps_shards[shard]);
        if (++slices_done_[w.index] == shards_.size())
            onSlicesComplete(w);
    }
}

void
SyncShardedPsJob::onSlicesComplete(WorkerCtx &w)
{
    WorkerCtx *wp = &w;
    sim_->after(cfg_.overhead.recv, [this, wp] {
        WorkerCtx &w = *wp;
        // Stitch the K slices into the full aggregated gradient.
        ml::Vec &agg = agg_[w.index];
        agg.resize(gradientWire(false).logical_floats);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const ShardSpec &sp = shards_[s];
            const auto &v = worker_rx_[w.index][s].vector();
            std::copy(v.begin(), v.end(), agg.begin() + sp.log_begin);
            worker_rx_[w.index][s].reset();
        }
        slices_done_[w.index] = 0;

        // The round's critical path is the slowest shard's update.
        // Each shard_wu_ slot is safely readable here: a shard cannot
        // recycle it for round r+1 until this worker (among all)
        // scatters r+1.
        const sim::TimeNs server_wu =
            *std::max_element(shard_wu_.begin(), shard_wu_.end());
        const sim::TimeNs elapsed = sim_->now() - w.lgc_end;
        const sim::TimeNs agg_time =
            elapsed > server_wu ? elapsed - server_wu : 0;
        chargeAggregation(w, agg_time);
        w.metrics.add(IterComponent::kWeightUpdate, server_wu);
        w.agent->applyAggregatedGradient(
            agg, static_cast<std::uint32_t>(workers_.size()));
        ++w.round;
        if (w.index == 0)
            noteGlobalIteration();
        beginRound(w);
    });
}

} // namespace isw::dist
