/** @file Microbenchmarks: domain-sharded parallel event engine. */

#include <benchmark/benchmark.h>

#include <vector>

#include "sim/shard.hh"

namespace {

using namespace isw::sim;

constexpr TimeNs kLookahead = 100;
constexpr std::size_t kStepsPerChain = 4096;

/** A self-rescheduling intra-domain event chain. */
struct Chain
{
    ShardedEngine *eng;
    DomainId d;
    std::size_t left;

    void
    step()
    {
        if (left-- == 0)
            return;
        // Stride < lookahead: several chain links execute per window,
        // mixing window bookkeeping with plain serial queue work.
        eng->schedule(d, eng->now() + 7, [this] { step(); });
    }
};

/**
 * D domains each running a private event chain on one thread —
 * measures the engine's window overhead relative to a bare EventQueue
 * (BM_ScheduleRun in micro_eventqueue), with zero cross traffic.
 */
void
BM_ShardedLocalChains(benchmark::State &state)
{
    const auto domains = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ShardPlan plan;
        plan.domains = domains;
        plan.lookahead = kLookahead;
        plan.threads = 1; // engine overhead, not parallel speedup
        ShardedEngine eng(plan);
        std::vector<Chain> chains(domains);
        for (std::size_t d = 0; d < domains; ++d) {
            chains[d] = Chain{&eng, static_cast<DomainId>(d),
                              kStepsPerChain};
            Chain *c = &chains[d];
            eng.schedule(c->d, 1, [c] { c->step(); });
        }
        eng.runAll();
        benchmark::DoNotOptimize(eng.executed());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(state.range(0) * kStepsPerChain));
}
BENCHMARK(BM_ShardedLocalChains)->Arg(1)->Arg(4)->Arg(16);

/** An event that hops to the next domain every step (worst case:
 *  every event is a staged handoff plus a merge). */
struct RingHop
{
    ShardedEngine *eng;
    std::size_t domains;
    std::size_t left;

    void
    step(DomainId d)
    {
        if (left-- == 0)
            return;
        const auto nxt =
            static_cast<DomainId>((d + 1) % domains);
        // Cross-domain sends must respect the lookahead contract.
        eng->schedule(nxt, eng->now() + kLookahead,
                      [this, nxt] { step(nxt); });
    }
};

void
BM_ShardedCrossRing(benchmark::State &state)
{
    const auto domains = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ShardPlan plan;
        plan.domains = domains;
        plan.lookahead = kLookahead;
        plan.threads = 1;
        ShardedEngine eng(plan);
        RingHop hop{&eng, domains, kStepsPerChain};
        RingHop *h = &hop;
        eng.schedule(0, 1, [h] { h->step(0); });
        eng.runAll();
        benchmark::DoNotOptimize(eng.crossEvents());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kStepsPerChain));
}
BENCHMARK(BM_ShardedCrossRing)->Arg(2)->Arg(8);

/**
 * All source domains fan into domain 0 every window: every slice
 * stages a handoff for the same destination, so this measures the
 * stage/merge path at its widest fan-in. From 3 threads up its 8
 * domains stay below the pool threshold
 * (ShardedEngine::kPoolDomainsPerThread per thread), so every window
 * runs on the calling thread. (The name predates the barrier merge;
 * it is kept so the committed micro baseline still matches.)
 */
struct FanIn
{
    ShardedEngine *eng;
    DomainId d;
    std::size_t left;

    void
    step()
    {
        if (left-- == 0)
            return;
        eng->schedule(0, eng->now() + kLookahead, [] {});
        eng->schedule(d, eng->now() + kLookahead, [this] { step(); });
    }
};

void
BM_ShardedMailboxFanIn(benchmark::State &state)
{
    const auto domains = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ShardPlan plan;
        plan.domains = domains;
        plan.lookahead = kLookahead;
        plan.threads = 0; // hardware concurrency
        ShardedEngine eng(plan);
        std::vector<FanIn> chains(domains);
        for (std::size_t d = 1; d < domains; ++d) {
            chains[d] = FanIn{&eng, static_cast<DomainId>(d),
                              kStepsPerChain};
            FanIn *c = &chains[d];
            eng.schedule(c->d, 1, [c] { c->step(); });
        }
        eng.runAll();
        benchmark::DoNotOptimize(eng.crossEvents());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>((state.range(0) - 1) * kStepsPerChain));
}
BENCHMARK(BM_ShardedMailboxFanIn)->Arg(8)->UseRealTime();

/**
 * The parallel configuration: local chains on as many threads as the
 * host offers. Real time is the figure of merit (cpu time sums the
 * pool); compare against BM_ShardedLocalChains/16 to see the
 * multi-core speedup on a given machine. Every window holds all 16
 * domains, enough to wake the pool at up to 4 threads; on a larger
 * host every window runs on the calling thread.
 */
void
BM_ShardedLocalChainsMT(benchmark::State &state)
{
    const auto domains = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ShardPlan plan;
        plan.domains = domains;
        plan.lookahead = kLookahead;
        plan.threads = 0; // hardware concurrency
        ShardedEngine eng(plan);
        std::vector<Chain> chains(domains);
        for (std::size_t d = 0; d < domains; ++d) {
            chains[d] = Chain{&eng, static_cast<DomainId>(d),
                              kStepsPerChain};
            Chain *c = &chains[d];
            eng.schedule(c->d, 1, [c] { c->step(); });
        }
        eng.runAll();
        benchmark::DoNotOptimize(eng.executed());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(state.range(0) * kStepsPerChain));
}
BENCHMARK(BM_ShardedLocalChainsMT)->Arg(16)->UseRealTime();

} // namespace
