/** @file Microbenchmarks: discrete-event kernel throughput. */

#include <benchmark/benchmark.h>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace {

using namespace isw::sim;

void
BM_ScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        std::size_t fired = 0;
        for (std::size_t i = 0; i < n; ++i)
            q.schedule(i, [&fired] { ++fired; });
        q.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleRun)->Arg(1024)->Arg(65536);

void
BM_RandomOrderSchedule(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    for (auto _ : state) {
        EventQueue q;
        std::size_t fired = 0;
        for (std::size_t i = 0; i < n; ++i) {
            q.schedule(static_cast<TimeNs>(rng.uniformInt(0, 1 << 20)),
                       [&fired] { ++fired; });
        }
        q.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RandomOrderSchedule)->Arg(65536);

void
BM_CancelHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::vector<EventId> ids;
        ids.reserve(4096);
        for (int i = 0; i < 4096; ++i)
            ids.push_back(q.schedule(static_cast<TimeNs>(i), [] {}));
        for (std::size_t i = 0; i < ids.size(); i += 2)
            q.cancel(ids[i]);
        q.runAll();
    }
}
BENCHMARK(BM_CancelHeavy);

/** One self-rescheduling event chain on a Simulation. */
struct AfterHop
{
    Simulation *sim;
    std::size_t *left; ///< events still to fire, shared by all chains
    TimeNs delay;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        sim->after(delay, *this);
    }
};

/**
 * The simulator's own scheduling path: 16 chains, each event
 * rescheduling itself through Simulation::after with a chain-specific
 * delay (so chains interleave through both the tail and the heap),
 * until the budget of events is spent.
 */
void
BM_SimulationAfterChain(benchmark::State &state)
{
    constexpr TimeNs kChains = 16;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        Simulation sim;
        std::size_t left = n;
        for (TimeNs c = 0; c < kChains; ++c)
            sim.after(c, AfterHop{&sim, &left, kChains + c});
        benchmark::DoNotOptimize(sim.run());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n + kChains));
}
BENCHMARK(BM_SimulationAfterChain)->Arg(65536);

void
BM_RngLognormal(benchmark::State &state)
{
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.lognormalMeanCv(1e6, 0.03));
}
BENCHMARK(BM_RngLognormal);

} // namespace
