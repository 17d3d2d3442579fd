#include "dist/transport.hh"

#include <algorithm>

#include "dist/pipeline.hh"

namespace isw::dist {

namespace {

/**
 * Encode one chunk's wire words from its logical sub-span through
 * @p ppp, or through an fp32 codec when @p ppp is null. Padding
 * segments (beyond the logical data) stay empty and skip the codec.
 */
void
fillChunk(net::ChunkPayload &chunk, std::span<const float> logical,
          const WireFormat &fmt, std::uint64_t seg, PrePostProcessor *ppp,
          std::span<const std::int8_t> seg_qexp)
{
    const std::uint64_t fps = fmt.floatsPerSeg();
    const std::uint64_t begin = seg * fps;
    if (begin >= logical.size())
        return;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + fps, logical.size());
    PrePostProcessor fp32;
    (ppp != nullptr ? *ppp : fp32)
        .encodeSeg(logical.subspan(begin, end - begin), chunk,
                   seg < seg_qexp.size() ? seg_qexp[seg] : kAutoQexp);
}

} // namespace

void
sendVector(net::Host &host, net::Ipv4Addr dst_ip, std::uint16_t dst_port,
           std::uint16_t src_port, std::uint8_t tos,
           std::uint64_t transfer_id, std::span<const float> logical,
           const WireFormat &fmt, std::uint64_t seg_base, std::uint8_t job,
           std::uint32_t ver_quota, PrePostProcessor *ppp,
           std::span<const std::int8_t> seg_qexp)
{
    const std::uint64_t segs = fmt.segments();
    for (std::uint64_t seg = 0; seg < segs; ++seg)
        sendVectorSegment(host, dst_ip, dst_port, src_port, tos,
                          transfer_id, logical, fmt, seg, seg_base, job,
                          ver_quota, ppp, seg_qexp);
}

void
sendVectorSegment(net::Host &host, net::Ipv4Addr dst_ip,
                  std::uint16_t dst_port, std::uint16_t src_port,
                  std::uint8_t tos, std::uint64_t transfer_id,
                  std::span<const float> logical, const WireFormat &fmt,
                  std::uint64_t seg, std::uint64_t seg_base,
                  std::uint8_t job, std::uint32_t ver_quota,
                  PrePostProcessor *ppp, std::span<const std::int8_t> seg_qexp)
{
    net::ChunkPayload chunk;
    chunk.transfer_id = transfer_id;
    chunk.seg = seg_base + seg;
    chunk.job = job;
    if (ver_quota != 0)
        chunk.ver =
            static_cast<std::uint8_t>((chunk.seg / ver_quota) & 1);
    chunk.wire_floats = core::floatsInSeg(seg, fmt.wire_bytes);
    fillChunk(chunk, logical, fmt, seg, ppp, seg_qexp);
    host.sendTo(dst_ip, dst_port, src_port, tos, std::move(chunk));
}

void
RecoveryStats::recordRecovery(sim::TimeNs latency)
{
    recoveries.fetch_add(1, std::memory_order_relaxed);
    latency_total.fetch_add(latency, std::memory_order_relaxed);
    // CAS max: fetch_max is C++26, so spin until our value is in or
    // a concurrent recorder's larger one already is.
    sim::TimeNs seen = latency_max.load(std::memory_order_relaxed);
    while (latency > seen &&
           !latency_max.compare_exchange_weak(seen, latency,
                                              std::memory_order_relaxed))
        ;
    const double ms = sim::toMillis(latency);
    std::size_t bucket = 0;
    for (const double edge : {1.0, 4.0, 16.0, 64.0, 256.0}) {
        if (ms < edge)
            break;
        ++bucket;
    }
    latency_hist[bucket].fetch_add(1, std::memory_order_relaxed);
}

RetxTimer::~RetxTimer()
{
    // Teardown runs on the owning thread after the run: cancel through
    // the domain that scheduled the event (cancelEvent would assume
    // the *caller's* domain and hit the wrong queue under sharding).
    if (sim_ != nullptr)
        sim_->cancelEventIn(pending_domain_, pending_);
}

void
RetxTimer::configure(sim::Simulation &sim, const RetransmitPolicy &policy,
                     RecoveryStats &stats)
{
    sim_ = &sim;
    policy_ = &policy;
    stats_ = &stats;
}

void
RetxTimer::arm(ResendFn resend)
{
    if (sim_ == nullptr || policy_->max_retries == 0)
        return;
    // Re-arming an armed timer is progress on the guarded stream.
    finish(/*record=*/true);
    resend_ = std::move(resend);
    retries_ = 0;
    first_timeout_at_ = 0;
    cur_timeout_ = policy_->timeout;
    schedule();
}

void
RetxTimer::done()
{
    finish(/*record=*/true);
}

void
RetxTimer::cancel()
{
    finish(/*record=*/false);
}

void
RetxTimer::finish(bool record)
{
    if (sim_ == nullptr)
        return;
    if (record && first_timeout_at_ != 0)
        stats_->recordRecovery(sim_->now() - first_timeout_at_);
    sim_->cancelEventIn(pending_domain_, pending_);
    pending_ = sim::kInvalidEventId;
    first_timeout_at_ = 0;
    resend_ = nullptr;
}

void
RetxTimer::schedule()
{
    pending_domain_ = sim_->hereDomain();
    pending_ = sim_->after(cur_timeout_, [this] { fire(); });
}

void
RetxTimer::fire()
{
    pending_ = sim::kInvalidEventId;
    if (!resend_)
        return;
    const std::size_t missing = resend_();
    if (missing == 0) {
        // Nothing left to recover; disarm without recording (the
        // owner's completion path calls done() when it notices).
        first_timeout_at_ = 0;
        resend_ = nullptr;
        return;
    }
    ++stats_->timeouts;
    if (first_timeout_at_ == 0)
        first_timeout_at_ = sim_->now();
    if (++retries_ >= policy_->max_retries) {
        ++stats_->gave_up;
        first_timeout_at_ = 0;
        resend_ = nullptr;
        return;
    }
    // Clamp before the cast: timeout * backoff^n overflows TimeNs long
    // before the retry cap for aggressive backoff factors, and the
    // wrapped value would schedule the retry nonsensically.
    const double next =
        static_cast<double>(cur_timeout_) * policy_->backoff;
    const double cap = static_cast<double>(policy_->max_timeout);
    cur_timeout_ = static_cast<sim::TimeNs>(next < cap ? next : cap);
    schedule();
}

void
VectorAssembler::reset(WireFormat fmt)
{
    fmt_ = fmt;
    reset();
}

void
VectorAssembler::reset()
{
    data_.assign(fmt_.logical_floats, 0.0f);
    seen_.assign(fmt_.segments(), false);
    received_ = 0;
    first_missing_ = 0;
}

bool
VectorAssembler::offer(const net::ChunkPayload &chunk, std::uint64_t seg_base)
{
    const std::uint64_t seg = chunk.seg - seg_base;
    if (seg >= fmt_.segments())
        return false; // not ours / malformed
    if (seen_[seg])
        return false; // duplicate
    seen_[seg] = true;
    ++received_;
    while (first_missing_ < seen_.size() && seen_[first_missing_])
        ++first_missing_; // advance the contiguous-prefix watermark
    const std::uint64_t begin = seg * fmt_.floatsPerSeg();
    if (begin < data_.size())
        decodeSeg(fmt_.precision, chunk,
                  std::span<float>(data_).subspan(begin));
    return complete();
}

bool
MultiRoundAssembler::offer(const net::ChunkPayload &chunk)
{
    // First-fit in O(1): the number of times this seg has arrived IS
    // the absolute index of the oldest round still missing it (rounds
    // are only popped once complete, so every popped round had every
    // seg — arrivals_[seg] >= popped_ always holds). A foreign index
    // has no counter, and must not touch one: it is rejected first.
    if (chunk.seg >= arrivals_.size())
        return frontComplete();
    const std::uint64_t target = arrivals_[chunk.seg]++;
    const std::uint64_t idx = target - popped_;
    if (idx == rounds_.size())
        rounds_.emplace_back(fmt_);
    rounds_[idx].offer(chunk);
    return frontComplete();
}

std::vector<float>
MultiRoundAssembler::popFront()
{
    std::vector<float> out = rounds_.front().vector();
    rounds_.pop_front();
    ++popped_;
    return out;
}

std::vector<std::uint64_t>
MultiRoundAssembler::missingFront() const
{
    if (!rounds_.empty())
        return rounds_.front().missingSegments();
    std::vector<std::uint64_t> all(fmt_.segments());
    for (std::uint64_t seg = 0; seg < all.size(); ++seg)
        all[seg] = seg;
    return all;
}

std::vector<std::uint64_t>
VectorAssembler::missingSegments() const
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t seg = 0; seg < fmt_.segments(); ++seg)
        if (!seen_[seg])
            out.push_back(seg);
    return out;
}

} // namespace isw::dist
