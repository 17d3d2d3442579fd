#include "sim/shard.hh"

#include <algorithm>
#include <stdexcept>

namespace isw::sim {

ShardedEngine::ShardedEngine(const ShardPlan &plan)
    : single_(plan.domains == 1), lookahead_(plan.lookahead)
{
    if (plan.domains == 0)
        throw std::invalid_argument("ShardedEngine: need at least 1 domain");
    if (plan.domains > std::size_t{kNoDomain})
        throw std::invalid_argument("ShardedEngine: too many domains");
    if (plan.lookahead == 0)
        throw std::invalid_argument("ShardedEngine: lookahead must be > 0");
    domains_.resize(plan.domains);
    for (std::size_t d = 0; d < domains_.size(); ++d)
        domains_[d].id = static_cast<DomainId>(d);

    const unsigned want = plan.threads != 0
                              ? plan.threads
                              : std::thread::hardware_concurrency();
    nthreads_ = static_cast<unsigned>(
        std::clamp<std::size_t>(want, 1, plan.domains));
    errors_.resize(nthreads_);
    pool_.reserve(nthreads_ - 1);
    for (unsigned i = 1; i < nthreads_; ++i)
        pool_.emplace_back(&ShardedEngine::workerMain, this, i);
}

ShardedEngine::~ShardedEngine()
{
    quit_.store(true, std::memory_order_release);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (auto &t : pool_)
        t.join();
}

EventId
ShardedEngine::scheduleSlow(DomainId d, TimeNs when,
                            EventQueue::Callback &&cb)
{
    if (single_)
        d = 0;
    else if (d >= domains_.size())
        throw std::out_of_range("ShardedEngine: no such domain");
    Domain &dst = domains_[d];
    Domain *src = executing();
    if (src == nullptr) // setup / between windows: owning thread only
        return dst.q.schedule(when, std::move(cb));
    // Cross-domain handoff. The conservative-window contract says
    // nothing scheduled during [T, end) may land in another domain
    // before `end`; a violation means the domain partition cut a
    // dependency shorter than the lookahead — a setup bug.
    if (when < window_end_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "ShardedEngine: cross-domain event violates lookahead");
    // Stage in the *source* domain (thread-private, no contention);
    // the owning thread merges it after the window's barrier.
    CrossEvent ce{when, src->id, d, src->send_seq++, std::move(cb)};
    for (auto &entry : src->staged) {
        if (entry.first == d) {
            entry.second.push_back(std::move(ce));
            return kInvalidEventId;
        }
    }
    src->staged.emplace_back(d, std::vector<CrossEvent>{});
    src->staged.back().second.push_back(std::move(ce));
    return kInvalidEventId; // staged events have no queue key yet
}

bool
ShardedEngine::cancelHere(EventId id)
{
    Domain *here = executing();
    return (here != nullptr ? *here : domains_.front()).q.cancel(id);
}

bool
ShardedEngine::cancelIn(DomainId d, EventId id)
{
    if (id == kInvalidEventId)
        return false;
    if (single_)
        d = 0;
    else if (d >= domains_.size())
        throw std::out_of_range("ShardedEngine: no such domain");
    // Inside a window only the executing domain's own queue is safe to
    // touch: another domain's queue may be mid-run on another thread,
    // and EventIds are only unique per queue, so a silent cross-domain
    // cancel would corrupt an unrelated event. Loud beats undefined.
    const Domain *here = executing();
    if (here != nullptr && here->id != d)
        throw std::logic_error(
            "ShardedEngine: cross-domain cancel mid-window — EventIds "
            "are queue-local; defer the cancel to its home domain");
    return domains_[d].q.cancel(id);
}

bool
ShardedEngine::empty() const
{
    return pending() == 0;
}

std::size_t
ShardedEngine::pending() const
{
    // Owner-thread only, between windows: no slice is running, so a
    // plain walk of the queues and staging lists is race-free.
    std::size_t n = 0;
    for (const auto &d : domains_) {
        n += d.q.pending();
        for (const auto &entry : d.staged)
            n += entry.second.size();
    }
    return n;
}

std::uint64_t
ShardedEngine::executed() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d.q.executed();
    return n;
}

std::size_t
ShardedEngine::peakPending() const
{
    std::size_t peak = 0;
    for (const auto &d : domains_)
        peak = std::max(peak, d.q.peakPending());
    return peak;
}

std::uint64_t
ShardedEngine::domainsSkipped() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d.skipped;
    return n;
}

std::uint64_t
ShardedEngine::crossEvents() const
{
    // send_seq is a per-source lifetime counter, so the sum is the
    // total number of handoffs without a shared atomic in the path.
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d.send_seq;
    return n;
}

std::uint64_t
ShardedEngine::crossBatches() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d.batches_out;
    return n;
}

void
ShardedEngine::drainStaged()
{
    // No window is running, and the barrier (the done_ handshake, or
    // one thread) ordered every slice's staging before this read.
    merge_buf_.clear();
    for (auto &src : domains_) {
        for (auto &entry : src.staged) {
            if (entry.second.empty())
                continue;
            ++src.batches_out;
            for (auto &ce : entry.second)
                merge_buf_.push_back(std::move(ce));
            entry.second.clear(); // keeps the capacity for the next window
        }
    }
    // Deterministic merge order per destination: time, then source
    // domain, then the source's send sequence. Queue FIFO tie-breaking
    // then reproduces this order for equal timestamps, independent of
    // thread interleaving.
    std::sort(merge_buf_.begin(), merge_buf_.end(),
              [](const CrossEvent &a, const CrossEvent &b) {
                  if (a.dst != b.dst)
                      return a.dst < b.dst;
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (auto &ce : merge_buf_)
        domains_[ce.dst].q.schedule(ce.when, std::move(ce.cb));
}

std::size_t
ShardedEngine::runDomainSlice(DomainId d, TimeNs end_exclusive,
                              std::size_t max_events)
{
    Domain &dom = domains_[d];
    // Pin the thread's domain context for the slice and restore the
    // previous one afterwards — also when a callback throws (lookahead
    // or cancel-contract violations surface as exceptions), and so a
    // Simulation run from inside another one's event leaves the outer
    // context intact. The leave hook must run on the throwing path too:
    // it restores thread-local state — e.g. a per-domain packet-pool
    // override — that would otherwise dangle past the owning job's
    // lifetime.
    struct SliceGuard
    {
        ShardedEngine *eng;
        DomainId d;
        ShardedEngine *prev_engine = tls_engine_;
        Domain *prev_dom = tls_dom_;
        ~SliceGuard()
        {
            if (eng->leave_)
                eng->leave_(d);
            tls_engine_ = prev_engine;
            tls_dom_ = prev_dom;
        }
    } guard{this, d};
    tls_engine_ = this;
    tls_dom_ = &dom;
    if (enter_)
        enter_(d);
    return dom.q.runWindow(end_exclusive, max_events);
}

std::size_t
ShardedEngine::runDomains(std::size_t first, std::size_t stride,
                          TimeNs end_exclusive, std::size_t max_events)
{
    std::size_t ran = 0;
    for (std::size_t d = first; d < domains_.size() && ran < max_events;
         d += stride) {
        Domain &dom = domains_[d];
        if (dom.q.nextTime() >= end_exclusive) {
            ++dom.skipped; // idle: no event before the window horizon
            continue;
        }
        ran += runDomainSlice(static_cast<DomainId>(d), end_exclusive,
                              max_events - ran);
    }
    return ran;
}

void
ShardedEngine::workerMain(unsigned worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        gen_.wait(seen, std::memory_order_acquire);
        seen = gen_.load(std::memory_order_acquire);
        if (quit_.load(std::memory_order_acquire))
            return;
        try {
            runDomains(worker, nthreads_,
                       window_end_.load(std::memory_order_relaxed),
                       SIZE_MAX);
        } catch (...) {
            errors_[worker] = std::current_exception();
        }
        done_.fetch_add(1, std::memory_order_release);
        done_.notify_one();
    }
}

bool
ShardedEngine::wakesPool(TimeNs end_exclusive)
{
    const std::size_t wide = kPoolDomainsPerThread * nthreads_;
    if (pool_.empty() || domains_.size() < wide)
        return false; // no window can be wide enough: skip the scan
    std::size_t active = 0;
    for (auto &dom : domains_)
        if (dom.q.nextTime() < end_exclusive && ++active == wide)
            return true;
    return false;
}

void
ShardedEngine::runWindowPool(TimeNs end_exclusive)
{
    done_.store(0, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    try {
        runDomains(0, nthreads_, end_exclusive, SIZE_MAX);
    } catch (...) {
        errors_[0] = std::current_exception();
    }
    // Every thread checks in before anything is rethrown: a pool slice
    // still running would otherwise touch the engine while the caller
    // unwinds, and race the next window's reset of done_.
    unsigned finished;
    while ((finished = done_.load(std::memory_order_acquire)) !=
           nthreads_ - 1)
        done_.wait(finished, std::memory_order_acquire);
    std::exception_ptr first;
    for (auto &e : errors_) {
        if (!first)
            first = e;
        e = nullptr;
    }
    if (first)
        std::rethrow_exception(first);
}

std::size_t
ShardedEngine::runLoop(TimeNs deadline, std::size_t max_events)
{
    std::size_t total = 0;
    for (;;) {
        drainStaged();
        TimeNs t = EventQueue::kNoEvent;
        for (auto &dom : domains_)
            t = std::min(t, dom.q.nextTime());
        if (t == EventQueue::kNoEvent || t > deadline)
            break;
        TimeNs end = t + lookahead_;
        if (end < t)
            end = EventQueue::kNoEvent; // overflow clamp
        if (deadline != EventQueue::kNoEvent && end > deadline)
            end = deadline + 1; // deadline-inclusive, like runUntil()
        // schedule()'s lookahead check reads the window end on both
        // paths.
        window_end_.store(end, std::memory_order_relaxed);
        if (wakesPool(end)) {
            const std::uint64_t before = executed();
            runWindowPool(end);
            total += static_cast<std::size_t>(executed() - before);
        } else {
            // Narrow window: the slices run one after another here,
            // which gives the pool's result (no slice sees another
            // domain's events before the barrier) without its wakeup.
            // Stopping early on the budget is safe: the next window
            // restarts at the earliest event left in any domain.
            total += runDomains(0, 1, end, max_events - total);
            ++windows_inline_;
        }
        ++windows_;
        if (barrier_)
            barrier_();
        if (total >= max_events)
            break;
    }
    for (const auto &d : domains_)
        committed_ = std::max(committed_, d.q.now());
    return total;
}

std::size_t
ShardedEngine::runAll(std::size_t max_events)
{
    return runLoop(EventQueue::kNoEvent, max_events);
}

std::size_t
ShardedEngine::runUntil(TimeNs deadline)
{
    const std::size_t n = runLoop(deadline, SIZE_MAX);
    // Like EventQueue::runUntil, park the clock at the deadline when
    // the queues drain early.
    if (empty() && committed_ < deadline)
        committed_ = deadline;
    return n;
}

} // namespace isw::sim
