/** @file Tests for Network composition and the flat ParamSet view. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "ml/network.hh"

namespace isw::ml {
namespace {

TEST(Network, MlpLayerCount)
{
    sim::Rng rng(1);
    Network net = Network::mlp<ReLU>({4, 8, 8, 2}, rng);
    // Linear-ReLU-Linear-ReLU-Linear: activation between layers only.
    EXPECT_EQ(net.numLayers(), 5u);
}

TEST(Network, ForwardProducesExpectedShape)
{
    sim::Rng rng(2);
    Network net = Network::mlp<Tanh>({3, 6, 2}, rng);
    Matrix y = net.forward(Matrix(5, 3, 0.1f));
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 2u);
}

template <class Act>
void
expectBackwardParamsMatchesBackward(std::uint64_t seed)
{
    // Two copies of one network take the same batch; one runs the full
    // backward, the other skips the first layer's input gradient.
    sim::Rng rng_a(seed), rng_b(seed), data(seed + 1);
    Network a = Network::mlp<Act>({5, 16, 16, 3}, rng_a);
    Network b = Network::mlp<Act>({5, 16, 16, 3}, rng_b);
    ParamSet pa, pb;
    pa.addNetwork(a);
    pb.addNetwork(b);
    Matrix x(7, 5), dy(7, 3);
    for (float &v : x.raw())
        v = static_cast<float>(data.uniform(-2.0, 2.0));
    for (float &v : dy.raw())
        v = static_cast<float>(data.uniform(-1.0, 1.0));
    a.forward(x);
    b.forward(x);
    const Matrix dx = a.backward(dy);
    b.backwardParams(dy);
    EXPECT_EQ(dx.rows(), 7u);
    Vec ga, gb;
    pa.copyGradsTo(ga);
    pb.copyGradsTo(gb);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ga[i]),
                  std::bit_cast<std::uint32_t>(gb[i]))
            << "gradient " << i;
}

TEST(Network, BackwardParamsGivesBackwardsParameterGradients)
{
    expectBackwardParamsMatchesBackward<Tanh>(11);
    expectBackwardParamsMatchesBackward<ReLU>(12);
}

TEST(ParamSet, CountMatchesArchitecture)
{
    sim::Rng rng(3);
    Network net = Network::mlp<ReLU>({4, 8, 2}, rng);
    ParamSet p;
    p.addNetwork(net);
    // (4*8 + 8) + (8*2 + 2) = 58.
    EXPECT_EQ(p.count(), 58u);
}

TEST(ParamSet, ValueRoundTrip)
{
    sim::Rng rng(4);
    Network net = Network::mlp<ReLU>({2, 3, 1}, rng);
    ParamSet p;
    p.addNetwork(net);
    Vec w;
    p.copyValuesTo(w);
    for (float &v : w)
        v += 1.0f;
    p.setValues(w);
    Vec back;
    p.copyValuesTo(back);
    EXPECT_EQ(back, w);
}

TEST(ParamSet, SetValuesRejectsWrongSize)
{
    sim::Rng rng(5);
    Network net = Network::mlp<ReLU>({2, 2}, rng);
    ParamSet p;
    p.addNetwork(net);
    Vec tiny(2, 0.0f);
    EXPECT_THROW(p.setValues(tiny), std::invalid_argument);
}

TEST(ParamSet, ZeroAndScaleGrads)
{
    sim::Rng rng(6);
    Network net = Network::mlp<ReLU>({2, 2}, rng);
    ParamSet p;
    p.addNetwork(net);
    net.forward(Matrix(1, 2, 1.0f));
    net.backward(Matrix(1, 2, 1.0f));
    Vec g;
    p.copyGradsTo(g);
    float nonzero = 0.0f;
    for (float v : g)
        nonzero += std::fabs(v);
    EXPECT_GT(nonzero, 0.0f);

    p.scaleGrads(0.5f);
    Vec half;
    p.copyGradsTo(half);
    for (std::size_t i = 0; i < g.size(); ++i)
        EXPECT_FLOAT_EQ(half[i], g[i] * 0.5f);

    p.zeroGrads();
    p.copyGradsTo(g);
    for (float v : g)
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ParamSet, AccumulateGrads)
{
    sim::Rng rng(7);
    Network net = Network::mlp<ReLU>({2, 2}, rng);
    ParamSet p;
    p.addNetwork(net);
    p.zeroGrads();
    Vec inc(p.count(), 2.0f);
    p.accumulateGrads(inc);
    p.accumulateGrads(inc);
    Vec g;
    p.copyGradsTo(g);
    for (float v : g)
        EXPECT_FLOAT_EQ(v, 4.0f);
}

TEST(ParamSet, ClipGradNormScalesDown)
{
    sim::Rng rng(8);
    Network net = Network::mlp<ReLU>({2, 2}, rng);
    ParamSet p;
    p.addNetwork(net);
    p.zeroGrads();
    Vec big(p.count(), 10.0f);
    p.accumulateGrads(big);
    const float pre = p.clipGradNorm(1.0f);
    EXPECT_GT(pre, 1.0f);
    Vec g;
    p.copyGradsTo(g);
    float sq = 0.0f;
    for (float v : g)
        sq += v * v;
    EXPECT_NEAR(std::sqrt(sq), 1.0f, 1e-4f);
}

TEST(ParamSet, ClipGradNormLeavesSmallGradients)
{
    sim::Rng rng(9);
    Network net = Network::mlp<ReLU>({2, 2}, rng);
    ParamSet p;
    p.addNetwork(net);
    p.zeroGrads();
    Vec small(p.count(), 1e-4f);
    p.accumulateGrads(small);
    p.clipGradNorm(100.0f);
    Vec g;
    p.copyGradsTo(g);
    for (float v : g)
        EXPECT_FLOAT_EQ(v, 1e-4f);
}

TEST(ParamSet, MultiNetworkLayoutIsRegistrationOrder)
{
    sim::Rng rng(10);
    Network a = Network::mlp<ReLU>({1, 1}, rng, "a");
    Network b = Network::mlp<ReLU>({1, 1}, rng, "b");
    ParamSet p;
    p.addNetwork(a);
    p.addNetwork(b);
    ASSERT_EQ(p.refs().size(), 4u);
    EXPECT_EQ(p.refs()[0].name, "a.l0.w");
    EXPECT_EQ(p.refs()[2].name, "b.l0.w");
}

} // namespace
} // namespace isw::ml
