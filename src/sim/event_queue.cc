#include "sim/event_queue.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace isw::sim {

namespace {

constexpr std::size_t kArity = 4;

} // namespace

EventId
EventQueue::insert(TimeNs when, std::uint64_t seq, Callback &&cb)
{
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        if (slot > kSlotMask)
            throw std::length_error("EventQueue: too many pending events");
        slots_.emplace_back();
    }
    SlotRec &rec = slots_[slot];
    rec.cb = std::move(cb);
    const std::uint64_t key = seq << kSlotBits | slot;
    rec.live_key = key;

    const Entry e{when, key};
    // Monotone arrivals (the common pattern: fixed-latency hops, link
    // serialization, scheduleAfter chains) append to the sorted tail
    // in O(1); only out-of-order arrivals pay the heap sift.
    if (tail_head_ == tail_.size()) {
        tail_.clear();
        tail_head_ = 0;
        tail_.push_back(e);
    } else if (!earlier(e, tail_.back())) {
        // A tail that never drains would otherwise keep every entry it
        // ever held. Dropping the consumed prefix once it is at least
        // half the vector moves at most as many entries as were popped
        // since the last reclaim: amortized O(1).
        if (tail_head_ >= kTailReclaimMin &&
            2 * tail_head_ >= tail_.size()) {
            const auto consumed = static_cast<std::ptrdiff_t>(tail_head_);
            tail_.erase(tail_.begin(), tail_.begin() + consumed);
            tail_head_ = 0;
        }
        tail_.push_back(e);
    } else {
        pushHeap(e);
    }
    if (++pending_ > peak_pending_)
        peak_pending_ = pending_;
    return key + 1;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint64_t key = id - 1; // kInvalidEventId wraps to ~0
    const std::uint64_t slot = key & kSlotMask;
    if (id == kInvalidEventId || slot >= slots_.size() ||
        slots_[slot].live_key != key)
        return false; // already fired, already cancelled, or unknown
    // The ordering entry stays buried and is discarded lazily when it
    // surfaces; the cleared slot key makes it recognisably stale.
    retireSlot(key);
    --pending_;
    return true;
}

void
EventQueue::pushHeap(const Entry &e)
{
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!earlier(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

EventQueue::Entry
EventQueue::popHeap()
{
    const Entry top = heap_.front();
    const Entry v = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < last; ++c)
            if (earlier(heap_[c], heap_[best]))
                best = c;
        if (!earlier(heap_[best], v))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = v;
    return top;
}

const EventQueue::Entry *
EventQueue::peekLive(bool *from_tail)
{
    // Drop stale (cancelled) fronts from both structures first.
    while (tail_head_ < tail_.size() && !live(tail_[tail_head_]))
        ++tail_head_;
    while (!heap_.empty() && !live(heap_.front()))
        (void)popHeap();

    const bool have_tail = tail_head_ < tail_.size();
    const bool have_heap = !heap_.empty();
    if (!have_tail && !have_heap)
        return nullptr;
    if (have_tail &&
        (!have_heap || earlier(tail_[tail_head_], heap_.front()))) {
        *from_tail = true;
        return &tail_[tail_head_];
    }
    *from_tail = false;
    return &heap_.front();
}

EventQueue::Entry
EventQueue::extract(bool from_tail)
{
    if (from_tail)
        return tail_[tail_head_++];
    return popHeap();
}

bool
EventQueue::runOne()
{
    return runWindow(kNoEvent, 1) != 0;
}

std::size_t
EventQueue::runUntil(TimeNs deadline)
{
    const std::size_t n =
        runWindow(deadline == kNoEvent ? kNoEvent : deadline + 1);
    if (empty() && now_ < deadline)
        now_ = deadline;
    return n;
}

std::size_t
EventQueue::runAll(std::size_t max_events)
{
    return runWindow(kNoEvent, max_events);
}

TimeNs
EventQueue::nextTime()
{
    bool from_tail;
    const Entry *top = peekLive(&from_tail);
    return top == nullptr ? kNoEvent : top->when;
}

std::size_t
EventQueue::runWindow(TimeNs end_exclusive, std::size_t max_events)
{
    std::size_t n = 0;
    while (n < max_events) {
        bool from_tail;
        const Entry *top = peekLive(&from_tail);
        if (top == nullptr || top->when >= end_exclusive)
            break;
        const Entry e = extract(from_tail);
        Callback cb = std::move(slots_[e.key & kSlotMask].cb);
        retireSlot(e.key);
        --pending_;
        ++executed_;
        now_ = e.when;
        cb();
        ++n;
    }
    return n;
}

} // namespace isw::sim
