#include "core/seg_buffer.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ml/quantize.hh"
#include "net/packet_pool.hh"

namespace isw::core {

namespace {

/** Move @p st's sum out, leaving a clean slot that keeps its
 *  contributor table (the accumulator leaves with the sum). */
SegState
takeSum(SegState &st)
{
    SegState out;
    out.acc = std::move(st.acc);
    out.count = st.count;
    out.wire_floats = st.wire_floats;
    out.prec = st.prec;
    out.qexp = st.qexp;
    st.acc.clear();
    st.count = 0;
    st.wire_floats = 0;
    st.prec = net::Precision::kFp32;
    st.qexp = 0;
    st.contributors.clear();
    return out;
}

} // namespace

std::size_t
ContributorSet::probe(std::uint32_t src) const
{
    const std::uint64_t want = std::uint64_t{src} + 1;
    const std::size_t mask = table_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>(want * 0x9E3779B97F4A7C15ULL >> 32) & mask;
    while (table_[i] != 0 && table_[i] != want)
        i = (i + 1) & mask;
    return i;
}

bool
ContributorSet::insert(std::uint32_t src)
{
    // Load factor at most 1/2 keeps probe chains short.
    if (2 * (size_ + 1) > table_.size())
        grow();
    std::uint64_t &bucket = table_[probe(src)];
    if (bucket != 0)
        return false;
    bucket = std::uint64_t{src} + 1;
    ++size_;
    return true;
}

bool
ContributorSet::contains(std::uint32_t src) const
{
    return !table_.empty() && table_[probe(src)] != 0;
}

void
ContributorSet::clear()
{
    if (size_ != 0)
        std::fill(table_.begin(), table_.end(), 0);
    size_ = 0;
}

void
ContributorSet::grow()
{
    std::vector<std::uint64_t> old = std::move(table_);
    table_.assign(old.empty() ? 8 : 2 * old.size(), 0);
    for (const std::uint64_t e : old) {
        if (e != 0)
            table_[probe(static_cast<std::uint32_t>(e - 1))] = e;
    }
}

std::uint32_t
SegBufferPool::findSlot(std::uint64_t seg) const
{
    if (buckets_.empty())
        return kNoSlot;
    std::size_t i = hashSeg(seg) & mask_;
    while (buckets_[i].slot_plus1 != 0) {
        if (buckets_[i].seg == seg)
            return buckets_[i].slot_plus1 - 1;
        i = (i + 1) & mask_;
    }
    return kNoSlot;
}

std::uint32_t
SegBufferPool::findOrInsert(std::uint64_t seg)
{
    if (buckets_.empty() || (active_ + 1) * 4 > buckets_.size() * 3)
        grow();
    std::size_t i = hashSeg(seg) & mask_;
    while (buckets_[i].slot_plus1 != 0) {
        if (buckets_[i].seg == seg)
            return buckets_[i].slot_plus1 - 1;
        i = (i + 1) & mask_;
    }
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    buckets_[i] = Bucket{seg, slot + 1};
    ++active_;
    peak_ = std::max(peak_, active_);
    return slot;
}

void
SegBufferPool::eraseIndex(std::uint64_t seg)
{
    std::size_t i = hashSeg(seg) & mask_;
    while (buckets_[i].seg != seg || buckets_[i].slot_plus1 == 0)
        i = (i + 1) & mask_;
    // Backward-shift deletion keeps probe chains intact without
    // tombstones: pull up any entry whose probe path crosses the hole.
    std::size_t j = i;
    for (;;) {
        buckets_[i] = Bucket{};
        for (;;) {
            j = (j + 1) & mask_;
            if (buckets_[j].slot_plus1 == 0)
                return;
            const std::size_t k = hashSeg(buckets_[j].seg) & mask_;
            // Movable iff the hole lies on j's probe path from k.
            if (((j - k) & mask_) >= ((j - i) & mask_))
                break;
        }
        buckets_[i] = buckets_[j];
        i = j;
    }
}

void
SegBufferPool::grow()
{
    const std::size_t cap = buckets_.empty() ? 64 : buckets_.size() * 2;
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(cap, Bucket{});
    mask_ = cap - 1;
    for (const Bucket &b : old) {
        if (b.slot_plus1 == 0)
            continue;
        std::size_t i = hashSeg(b.seg) & mask_;
        while (buckets_[i].slot_plus1 != 0)
            i = (i + 1) & mask_;
        buckets_[i] = b;
    }
}

void
SegBufferPool::setCapacity(std::size_t slots)
{
    clear();
    capacity_ = slots;
    slots_.assign(capacity_, Slot{});
    partitions_.clear();
    partitioned_ = false;
}

void
SegBufferPool::setJobPartition(std::uint8_t job, std::uint32_t base,
                               std::uint32_t quota)
{
    if (!bounded())
        throw std::logic_error(
            "SegBufferPool::setJobPartition: pool is unbounded");
    if (quota == 0 || std::size_t{base} + quota > capacity_)
        throw std::invalid_argument(
            "SegBufferPool::setJobPartition: partition exceeds capacity");
    if (partitions_.size() <= job)
        partitions_.resize(std::size_t{job} + 1);
    partitions_[job] = Partition{base, quota, true};
    partitioned_ = true;
}

std::uint32_t
SegBufferPool::quotaFor(std::uint8_t job) const
{
    if (!partitioned_)
        return static_cast<std::uint32_t>(capacity_);
    if (job < partitions_.size() && partitions_[job].set)
        return partitions_[job].quota;
    return 0;
}

SlotPoolStats &
SegBufferPool::statsFor(std::uint8_t job)
{
    if (stats_.size() <= job)
        stats_.resize(std::size_t{job} + 1);
    return stats_[job];
}

SlotPoolStats
SegBufferPool::jobStats(std::uint8_t job) const
{
    return job < stats_.size() ? stats_[job] : SlotPoolStats{};
}

std::uint64_t
SegBufferPool::contentionEvents() const
{
    std::uint64_t n = 0;
    for (const SlotPoolStats &s : stats_)
        n += s.stale_drops + s.busy_drops + s.unadmitted + s.reclaimed;
    return n;
}

SlotPoolStats
SegBufferPool::totals() const
{
    SlotPoolStats t;
    for (const SlotPoolStats &s : stats_) {
        t.accepted += s.accepted;
        t.completed += s.completed;
        t.duplicates += s.duplicates;
        t.stale_drops += s.stale_drops;
        t.busy_drops += s.busy_drops;
        t.unadmitted += s.unadmitted;
        t.reclaimed += s.reclaimed;
        t.overflow_clamps += s.overflow_clamps;
        t.exp_rescales += s.exp_rescales;
    }
    return t;
}

SlotOutcome
SegBufferPool::foldInto(SegState &st, const net::ChunkPayload &chunk,
                        std::uint32_t h, std::uint32_t src, bool dedupe)
{
    if (dedupe && !st.contributors.insert(src))
        return SlotOutcome::kDuplicate; // retransmission: already folded in
    st.wire_floats = std::max(st.wire_floats, chunk.wire_floats);
    if (st.count == 0) {
        st.prec = chunk.prec;
        st.qexp = chunk.qexp;
    }
    const std::size_t n = chunk.values.size();
    if (st.acc.size() < n) {
        if (st.acc.capacity() == 0)
            st.acc = net::PacketPool::local().acquireFloats(n);
        st.acc.resize(n, 0.0f);
    }
    float *__restrict__ a = st.acc.data();
    const float *__restrict__ v = chunk.values.data();
    if (st.prec == net::Precision::kInt32) {
        // Integer-ALU datapath: saturating int32 adds at the slot's
        // shared exponent. Equal-exponent contributions commute
        // bit-identically; a mismatch rescales toward the larger
        // exponent (max over contributions — itself order-independent)
        // and is counted as the documented degraded path.
        SlotPoolStats &js = statsFor(chunk.job);
        std::uint64_t clamps = 0;
        if (chunk.qexp != st.qexp) {
            ++js.exp_rescales;
            if (chunk.qexp > st.qexp) {
                clamps += ml::rescaleBlockInt32(a, st.acc.size(), st.qexp,
                                                chunk.qexp);
                st.qexp = chunk.qexp;
            }
        }
        if (chunk.qexp < st.qexp) {
            std::vector<float> tmp(v, v + n);
            clamps +=
                ml::rescaleBlockInt32(tmp.data(), n, chunk.qexp, st.qexp);
            clamps += ml::addBlockInt32(a, tmp.data(), n);
        } else {
            clamps += ml::addBlockInt32(a, v, n);
        }
        js.overflow_clamps += clamps;
    } else if (st.prec == net::Precision::kFp16) {
        // FPISA-style half adders: unpack both packed halves, add in
        // fp32, round back to fp16 — per-step rounding included.
        for (std::size_t i = 0; i < n; ++i)
            a[i] = ml::addHalfWords(a[i], v[i]);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            a[i] += v[i];
    }
    ++st.count;
    return st.count >= h ? SlotOutcome::kCompleted : SlotOutcome::kAccepted;
}

SlotOutcome
SegBufferPool::offer(const net::ChunkPayload &chunk, std::uint32_t h,
                     std::uint32_t src, bool dedupe)
{
    const SlotOutcome out = bounded()
                                ? offerBounded(chunk, h, src, dedupe)
                                : offerUnbounded(chunk, h, src, dedupe);
    SlotPoolStats &s = statsFor(chunk.job);
    switch (out) {
      case SlotOutcome::kAccepted: ++s.accepted; break;
      case SlotOutcome::kCompleted: ++s.accepted; ++s.completed; break;
      case SlotOutcome::kDuplicate: ++s.duplicates; break;
      case SlotOutcome::kStale: ++s.stale_drops; break;
      case SlotOutcome::kBusy: ++s.busy_drops; break;
      case SlotOutcome::kUnadmitted: ++s.unadmitted; break;
    }
    return out;
}

SlotOutcome
SegBufferPool::offerUnbounded(const net::ChunkPayload &chunk, std::uint32_t h,
                              std::uint32_t src, bool dedupe)
{
    const std::uint64_t key = packSegWord(chunk.seg, chunk.job);
    return foldInto(slab_[findOrInsert(key)], chunk, h, src, dedupe);
}

std::uint32_t
SegBufferPool::boundedSlot(std::uint8_t job, std::uint64_t seg) const
{
    if (!partitioned_)
        return static_cast<std::uint32_t>(seg % capacity_);
    if (job >= partitions_.size() || !partitions_[job].set)
        return kNoSlot;
    const Partition &p = partitions_[job];
    return p.base + static_cast<std::uint32_t>(seg % p.quota);
}

SlotOutcome
SegBufferPool::offerBounded(const net::ChunkPayload &chunk, std::uint32_t h,
                            std::uint32_t src, bool dedupe)
{
    const std::uint32_t idx = boundedSlot(chunk.job, chunk.seg);
    if (idx == kNoSlot)
        return SlotOutcome::kUnadmitted;
    Slot &sl = slots_[idx];
    if (!sl.used) {
        // Stale floor: a duplicate of an already-completed segment must
        // not re-claim the slot — it would accumulate forever (its
        // other contributors are gone) and deadlock the stream.
        if (dedupe && chunk.seg < sl.floor)
            return SlotOutcome::kStale;
        sl.used = true;
        sl.ordered = dedupe;
        sl.job = chunk.job;
        sl.ver = chunk.ver & 1;
        sl.seg = chunk.seg;
        ++active_;
        peak_ = std::max(peak_, active_);
        const SlotOutcome out = foldInto(sl.st, chunk, h, src, dedupe);
        return out; // fresh claim cannot be a duplicate
    }
    if (sl.job == chunk.job && sl.seg == chunk.seg) {
        if (sl.ver != (chunk.ver & 1))
            return SlotOutcome::kStale; // other reuse cycle of same seg
        return foldInto(sl.st, chunk, h, src, dedupe);
    }
    // Slot conflict. Ordered traffic: an older seg is stale (its round
    // already finished — drop); a newer seg means the occupant is still
    // aggregating — Nack so the sender retries once the slot frees.
    if (dedupe && chunk.seg < sl.seg)
        return SlotOutcome::kStale;
    return SlotOutcome::kBusy;
}

std::uint32_t
SegBufferPool::count(std::uint64_t key) const
{
    if (bounded()) {
        const std::uint32_t idx = boundedSlot(segWordJob(key),
                                              segWordIndex(key));
        if (idx == kNoSlot)
            return 0;
        const Slot &sl = slots_[idx];
        return (sl.used && sl.job == segWordJob(key) &&
                sl.seg == segWordIndex(key))
                   ? sl.st.count
                   : 0;
    }
    const std::uint32_t slot = findSlot(key);
    return slot == kNoSlot ? 0 : slab_[slot].count;
}

bool
SegBufferPool::has(std::uint64_t key) const
{
    return count(key) != 0;
}

const SegState *
SegBufferPool::peek(std::uint64_t key) const
{
    if (bounded())
        return nullptr; // HA replication runs unbounded only
    const std::uint32_t slot = findSlot(key);
    return slot == kNoSlot ? nullptr : &slab_[slot];
}

SegState &
SegBufferPool::replicaSlot(std::uint64_t key)
{
    if (bounded())
        throw std::logic_error(
            "SegBufferPool::replicaSlot: bounded pools unsupported "
            "(HA backups run the unbounded dedicated-switch model)");
    return slab_[findOrInsert(key)];
}

SegState
SegBufferPool::harvest(std::uint64_t key, bool completed)
{
    if (bounded()) {
        const std::uint32_t idx = boundedSlot(segWordJob(key),
                                              segWordIndex(key));
        if (idx == kNoSlot)
            throw std::out_of_range(
                "SegBufferPool::harvest: no such segment");
        Slot &sl = slots_[idx];
        if (!sl.used || sl.job != segWordJob(key) ||
            sl.seg != segWordIndex(key))
            throw std::out_of_range(
                "SegBufferPool::harvest: no such segment");
        SegState out = takeSum(sl.st);
        sl.used = false;
        // A completed segment moves the stale floor past itself so late
        // duplicates are dropped; a recovery drop leaves the floor so
        // the retransmitted segment is still admissible.
        if (completed && sl.ordered)
            sl.floor = std::max(sl.floor, sl.seg + 1);
        --active_;
        return out;
    }
    const std::uint32_t slot = findSlot(key);
    if (slot == kNoSlot)
        throw std::out_of_range("SegBufferPool::harvest: no such segment");
    SegState out = takeSum(slab_[slot]);
    eraseIndex(key);
    free_.push_back(slot);
    --active_;
    return out;
}

std::size_t
SegBufferPool::reclaimFrom(std::uint32_t src)
{
    std::size_t n = 0;
    if (bounded()) {
        for (Slot &sl : slots_) {
            if (!sl.used || !sl.st.contributors.contains(src))
                continue;
            (void)takeSum(sl.st);
            sl.used = false; // floor untouched: survivors may resend
            --active_;
            ++statsFor(sl.job).reclaimed;
            ++n;
        }
        return n;
    }
    std::vector<std::uint64_t> keys;
    for (const Bucket &b : buckets_) {
        if (b.slot_plus1 != 0 &&
            slab_[b.slot_plus1 - 1].contributors.contains(src))
            keys.push_back(b.seg);
    }
    for (std::uint64_t key : keys) {
        harvest(key, /*completed=*/false);
        ++statsFor(segWordJob(key)).reclaimed;
        ++n;
    }
    return n;
}

void
SegBufferPool::clear()
{
    buckets_.clear();
    mask_ = 0;
    slab_.clear();
    free_.clear();
    active_ = 0;
    slots_.assign(capacity_, Slot{});
}

} // namespace isw::core
