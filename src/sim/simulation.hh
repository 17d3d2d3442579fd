/**
 * @file
 * Simulation context: clock + event queue + RNG + logger.
 *
 * Every simulated entity (link, switch, worker, ...) holds a reference
 * to one Simulation and interacts with the world exclusively through
 * it, which keeps runs deterministic. Events always run on a
 * sim::ShardedEngine (sim/shard.hh). A fresh Simulation owns a
 * one-domain engine — the serial queue, single-threaded, one window
 * per run call — and shard() swaps in a D-domain conservative-parallel
 * engine before the first event, keeping the same scheduling API.
 */

#ifndef ISW_SIM_SIMULATION_HH
#define ISW_SIM_SIMULATION_HH

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "sim/shard.hh"
#include "sim/time.hh"

namespace isw::sim {

/**
 * Owner of all cross-cutting simulation state.
 *
 * Not copyable or movable: entities capture `Simulation&`.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1)
        : engine_(std::make_unique<ShardedEngine>(
              ShardPlan{1, kUnboundedLookahead, 1})),
          root_rng_(seed), next_stream_(0)
    {}

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    TimeNs now() const { return engine_->now(); }

    Logger &logger() { return logger_; }

    /** Root RNG. Prefer forkRng() for per-entity streams. */
    Rng &rng() { return root_rng_; }

    /** Hand out the next independent RNG substream. */
    Rng forkRng() { return root_rng_.fork(next_stream_++); }

    /**
     * Swap the one-domain engine for a domain-sharded parallel one.
     * Must be called before any event is scheduled (typically right
     * after topology construction, which schedules nothing). Entities
     * are assigned to domains via net::Node::setDomain(); events
     * scheduled outside any domain context land in domain 0.
     */
    void shard(const ShardPlan &plan)
    {
        if (sharded())
            throw std::logic_error("Simulation: already sharded");
        if (!engine_->empty() || engine_->executed() != 0)
            throw std::logic_error(
                "Simulation: shard() before scheduling events");
        engine_ = std::make_unique<ShardedEngine>(plan);
    }

    /** The event engine (one domain until shard()). */
    ShardedEngine &engine() { return *engine_; }
    /** True once shard() installed an engine with several domains. */
    bool sharded() const { return engine_->domains() > 1; }

    /** Convenience: schedule relative to now. */
    EventId after(TimeNs delay, EventQueue::Callback &&cb)
    {
        return engine_->after(delay, std::move(cb));
    }

    /** Convenience: schedule at absolute time. */
    EventId at(TimeNs when, EventQueue::Callback &&cb)
    {
        return engine_->at(when, std::move(cb));
    }

    /**
     * Schedule at absolute time into a specific shard domain. On an
     * un-sharded Simulation every domain is the one queue.
     */
    EventId atInDomain(DomainId d, TimeNs when,
                       EventQueue::Callback &&cb)
    {
        return engine_->schedule(d, when, std::move(cb));
    }

    /**
     * Reserve a tie-break rank in domain @p d for a later
     * scheduleReserved() (sim/shard.hh): 0 when this thread executes
     * another domain, whose events reach @p d only through a handoff.
     */
    std::uint64_t reserveSeq(DomainId d) { return engine_->reserveSeq(d); }

    /** Schedule at absolute time in domain @p d with a rank reserved
     *  there by reserveSeq(d). */
    EventId scheduleReserved(DomainId d, TimeNs when, std::uint64_t seq,
                             EventQueue::Callback &&cb)
    {
        return engine_->scheduleReserved(d, when, seq, std::move(cb));
    }

    /**
     * Cancel an event by handle. Sharded: only valid from the domain
     * that scheduled it (handles are queue-local, so a foreign handle
     * silently hits an unrelated event); kInvalidEventId is always a
     * harmless no-op. Callers that may cancel from another domain —
     * RetxTimer teardown, deferred acks — must record the scheduling
     * domain (hereDomain() at schedule time) and use cancelEventIn().
     */
    bool cancelEvent(EventId id) { return engine_->cancelHere(id); }

    /**
     * Cancel an event known to have been scheduled in domain @p d.
     * Safe between windows and from inside domain d; a cross-domain
     * cancel mid-window throws std::logic_error instead of silently
     * corrupting another queue. Un-sharded: plain cancel.
     */
    bool cancelEventIn(DomainId d, EventId id)
    {
        return engine_->cancelIn(d, id);
    }

    /** Domain events scheduled by this thread land in: the executing
     *  domain during a sharded window, 0 otherwise. */
    DomainId hereDomain() const { return engine_->hereOr0(); }

    /** Run everything (bounded by @p max_events as a runaway guard). */
    std::size_t run(std::size_t max_events = SIZE_MAX)
    {
        return engine_->runAll(max_events);
    }

    /** Run until simulated @p deadline. */
    std::size_t runUntil(TimeNs deadline)
    {
        return engine_->runUntil(deadline);
    }

    /** Events executed so far (aggregated across domains). */
    std::uint64_t eventsExecuted() const { return engine_->executed(); }

    /** Pending events (aggregated across domains + staged handoffs). */
    std::size_t pendingEvents() const { return engine_->pending(); }

    /** Largest pending-event count any one domain reached. */
    std::size_t peakPendingEvents() const { return engine_->peakPending(); }

    /** True when no runnable events remain anywhere. */
    bool queueEmpty() const { return engine_->empty(); }

  private:
    std::unique_ptr<ShardedEngine> engine_;
    Logger logger_;
    Rng root_rng_;
    std::uint64_t next_stream_;
};

} // namespace isw::sim

#endif // ISW_SIM_SIMULATION_HH
