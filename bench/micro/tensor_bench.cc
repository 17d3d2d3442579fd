/** @file Microbenchmarks: dense NN kernels. */

#include <benchmark/benchmark.h>

#include "ml/network.hh"
#include "ml/optimizer.hh"
#include "sim/random.hh"

namespace {

using namespace isw;

void
BM_AffineForward(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    ml::Matrix x(32, dim, 0.5f);
    ml::Matrix w(dim, dim, 0.01f);
    ml::Vec b(dim, 0.0f);
    ml::Matrix y;
    for (auto _ : state) {
        ml::affineForward(x, w, b, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            32 * static_cast<std::int64_t>(dim * dim));
}
BENCHMARK(BM_AffineForward)->Arg(64)->Arg(256);

/** One input row, as when an agent picks an action. */
void
BM_AffineForwardRow(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    ml::Matrix x(1, dim, 0.5f);
    ml::Matrix w(dim, dim, 0.01f);
    ml::Vec b(dim, 0.0f);
    ml::Matrix y;
    for (auto _ : state) {
        ml::affineForward(x, w, b, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim * dim));
}
BENCHMARK(BM_AffineForwardRow)->Arg(64);

void
BM_AffineBackward(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    ml::Matrix x(32, dim, 0.5f);
    ml::Matrix w(dim, dim, 0.01f);
    ml::Matrix dy(32, dim, 0.02f);
    ml::Matrix dw(dim, dim);
    ml::Vec db(dim, 0.0f);
    ml::Matrix dx;
    for (auto _ : state) {
        ml::affineBackward(dy, x, w, dw, db, dx);
        benchmark::DoNotOptimize(dx.data());
        benchmark::DoNotOptimize(dw.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            32 * static_cast<std::int64_t>(dim * dim));
}
BENCHMARK(BM_AffineBackward)->Arg(64);

/** The Tanh layer's kernel on pre-activations in [-3, 3]: 48 floats
 *  are one DDPG action row, 3072 a 64x48 batch. */
void
BM_TanhForward(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng(3);
    ml::Vec x(n), y(n);
    for (float &v : x)
        v = static_cast<float>(rng.uniform(-3.0, 3.0));
    for (auto _ : state) {
        ml::tanhForward(x, y);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TanhForward)->Arg(48)->Arg(3072);

void
BM_MlpForwardBackward(benchmark::State &state)
{
    sim::Rng rng(1);
    ml::Network net = ml::Network::mlp<ml::ReLU>({6, 64, 64, 3}, rng);
    ml::ParamSet params;
    params.addNetwork(net);
    ml::Matrix x(32, 6, 0.1f);
    ml::Matrix dy(32, 3, 0.01f);
    for (auto _ : state) {
        params.zeroGrads();
        benchmark::DoNotOptimize(net.forward(x).data());
        benchmark::DoNotOptimize(net.backward(dy).data());
    }
}
BENCHMARK(BM_MlpForwardBackward);

void
BM_AdamStep(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    ml::Adam opt(1e-3);
    std::vector<float> p(n, 1.0f), g(n, 0.01f);
    for (auto _ : state) {
        opt.step(p, g);
        benchmark::DoNotOptimize(p.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamStep)->Arg(1 << 12)->Arg(1 << 16);

void
BM_FlattenGradients(benchmark::State &state)
{
    sim::Rng rng(2);
    ml::Network net = ml::Network::mlp<ml::Tanh>({16, 128, 128, 8}, rng);
    ml::ParamSet params;
    params.addNetwork(net);
    ml::Vec out;
    for (auto _ : state) {
        params.copyGradsTo(out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FlattenGradients);

} // namespace
