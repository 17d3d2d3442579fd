/** @file The wire codec (DESIGN.md §14): each precision's encode path
 *  must round-trip through VectorAssembler's decode path, fp32 must
 *  carry the raw words, and every strategy must finish a short job at
 *  every precision with the quant counters exported (0 when nothing
 *  clamps) and the results its recorded digest pins. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "dist/pipeline.hh"
#include "dist/strategy.hh"
#include "dist/transport.hh"
#include "harness/runner.hh"
#include "matrix_cells.hh"
#include "ml/quantize.hh"
#include "ml/serialize.hh"
#include "sim/random.hh"

namespace isw::dist {
namespace {

std::vector<float>
randomGrads(std::size_t n, std::uint64_t seed = 11)
{
    sim::Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0)) * 0.1f;
    return v;
}

/** Push @p logical through @p ppp segment by segment into @p rx,
 *  exactly as sendVector chunks it. Returns the encoded chunks'
 *  stamped exponents (one per segment). */
std::vector<std::int8_t>
sendThrough(PrePostProcessor &ppp, std::span<const float> logical,
            const WireFormat &fmt, VectorAssembler &rx,
            std::span<const std::int8_t> forced = {})
{
    std::vector<std::int8_t> exps;
    const std::uint64_t fps = fmt.floatsPerSeg();
    for (std::uint64_t seg = 0; seg < fmt.segments(); ++seg) {
        const std::uint64_t begin = seg * fps;
        std::span<const float> part;
        if (begin < logical.size())
            part = logical.subspan(
                begin, std::min<std::size_t>(fps, logical.size() - begin));
        net::ChunkPayload c;
        c.seg = seg;
        ppp.encodeSeg(part, c,
                      seg < forced.size() ? forced[seg] : kAutoQexp);
        c.wire_floats = static_cast<std::uint32_t>(c.values.size());
        exps.push_back(c.qexp);
        rx.offer(c);
    }
    return exps;
}

TEST(PipelineFactory, BuildsTheMatchingProcessor)
{
    for (auto prec : {net::Precision::kFp32, net::Precision::kFp16,
                      net::Precision::kInt32}) {
        auto ppp = makePrePostProcessor(prec);
        ASSERT_NE(ppp, nullptr);
        EXPECT_EQ(ppp->precision(), prec);
        EXPECT_EQ(ppp->stats().value_clamps, 0u);
        EXPECT_EQ(ppp->stats().exp_clamps, 0u);
    }
}

TEST(PipelineBypass, BitIdenticalRoundTripAndLegacyStamps)
{
    const std::vector<float> logical = randomGrads(1000);
    const WireFormat fmt = WireFormat::forVector(logical.size(), 0, false);
    PrePostProcessor ppp(net::Precision::kFp32);
    VectorAssembler rx(fmt);

    const std::uint64_t fps = fmt.floatsPerSeg();
    for (std::uint64_t seg = 0; seg < fmt.segments(); ++seg) {
        const std::uint64_t begin = seg * fps;
        const auto part = std::span<const float>(logical).subspan(
            begin, std::min<std::size_t>(fps, logical.size() - begin));
        net::ChunkPayload c;
        c.seg = seg;
        ppp.encodeSeg(part, c, kAutoQexp);
        // fp32 wire contract: raw fp32 words, (kFp32, qexp 0) stamps
        // so the packed Seg word is the paper's bare segment index.
        EXPECT_EQ(c.prec, net::Precision::kFp32);
        EXPECT_EQ(c.qexp, 0);
        ASSERT_EQ(c.values.size(), part.size());
        for (std::size_t i = 0; i < part.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c.values[i]),
                      std::bit_cast<std::uint32_t>(part[i]));
        rx.offer(c);
    }
    ASSERT_TRUE(rx.complete());
    for (std::size_t i = 0; i < logical.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(rx.vector()[i]),
                  std::bit_cast<std::uint32_t>(logical[i]));
}

TEST(PipelineFp16, OddTailRoundTripsThroughAssembler)
{
    // 1001 floats: an odd logical count forces a half-filled final
    // wire word; fp16 also halves the segment count vs fp32.
    const std::vector<float> logical = randomGrads(1001);
    const WireFormat fmt = WireFormat::forVector(logical.size(), 0, false,
                                                 net::Precision::kFp16);
    const WireFormat f32 = WireFormat::forVector(logical.size(), 0, false);
    EXPECT_LT(fmt.segments(), f32.segments());

    PrePostProcessor ppp(net::Precision::kFp16);
    VectorAssembler rx(fmt);
    sendThrough(ppp, logical, fmt, rx);
    ASSERT_TRUE(rx.complete());

    // floatsPerSeg is even, so per-segment packing pairs the same
    // halves as packing the whole vector at once.
    std::vector<float> wire((logical.size() + 1) / 2);
    std::vector<float> expect(logical.size());
    ml::packHalfWords(logical.data(), logical.size(), wire.data());
    ml::unpackHalfWords(wire.data(), logical.size(), expect.data());
    for (std::size_t i = 0; i < logical.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(rx.vector()[i]),
                  std::bit_cast<std::uint32_t>(expect[i]))
            << "float " << i;
}

TEST(PipelineInt32, AutoExponentMatchesReferenceCodec)
{
    const std::vector<float> logical = randomGrads(700);
    const WireFormat fmt = WireFormat::forVector(logical.size(), 0, false,
                                                 net::Precision::kInt32);
    PrePostProcessor ppp(net::Precision::kInt32);
    VectorAssembler rx(fmt);
    const std::vector<std::int8_t> exps = sendThrough(ppp, logical, fmt, rx);
    ASSERT_TRUE(rx.complete());

    // The pipeline must be plumbing, not a second codec: per segment,
    // its output is bit-identical to ml/quantize applied directly.
    const std::uint64_t fps = fmt.floatsPerSeg();
    for (std::uint64_t seg = 0; seg < fmt.segments(); ++seg) {
        const std::uint64_t begin = seg * fps;
        const std::size_t n =
            std::min<std::size_t>(fps, logical.size() - begin);
        const int e = ml::blockExponent(logical.data() + begin, n, 1);
        EXPECT_EQ(exps[seg], e);
        std::vector<float> wire(n), expect(n);
        ml::encodeBlockInt32(logical.data() + begin, n, e, wire.data());
        ml::decodeBlockInt32(wire.data(), n, e, expect.data());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(rx.vector()[begin + i]),
                      std::bit_cast<std::uint32_t>(expect[i]))
                << "seg " << seg << " float " << i;
    }
}

TEST(PipelineInt32, ForcedExponentIsStampedAndDecodedWith)
{
    const std::vector<float> logical = randomGrads(96);
    const WireFormat fmt = WireFormat::forVector(logical.size(), 0, false,
                                                 net::Precision::kInt32);
    ASSERT_EQ(fmt.segments(), 1u);
    PrePostProcessor ppp(net::Precision::kInt32);
    VectorAssembler rx(fmt);
    const std::vector<std::int8_t> forced{7};
    sendThrough(ppp, logical, fmt, rx, forced);
    ASSERT_TRUE(rx.complete());

    std::vector<float> wire(logical.size()), expect(logical.size());
    ml::encodeBlockInt32(logical.data(), logical.size(), 7, wire.data());
    ml::decodeBlockInt32(wire.data(), wire.size(), 7, expect.data());
    for (std::size_t i = 0; i < logical.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(rx.vector()[i]),
                  std::bit_cast<std::uint32_t>(expect[i]));
}

TEST(PipelineInt32, TooSmallForcedExponentCountsValueClamps)
{
    // Values near 1.0 at forced exponent -10 scale by 2^40: every
    // nonzero lane saturates at the rail and the stats must say so.
    std::vector<float> logical(8, 0.9f);
    net::ChunkPayload c;
    c.seg = 0;
    PrePostProcessor ppp(net::Precision::kInt32);
    ppp.encodeSeg(logical, c, /*forced_qexp=*/-10);
    EXPECT_EQ(c.qexp, -10);
    EXPECT_EQ(ppp.stats().value_clamps, logical.size());
    for (float w : c.values)
        EXPECT_EQ(std::bit_cast<std::int32_t>(w), ml::kQuantMax);
}

/**
 * Results golden of one run: its resultToJson dump (every deterministic
 * result field: iterations, simulated timing, rewards, breakdown,
 * extras, curve) plus the FNV-1a of worker 0's final weight bits.
 */
std::string
resultDump(JobBase &job, const RunResult &res)
{
    ml::Vec w;
    job.workerAgent(0).getWeights(w);
    std::ostringstream o;
    o << harness::resultToJson(res).dump(2) << "\nworker0_weights "
      << w.size() << " fnv1a 0x" << std::hex
      << ml::fnv1a(w.data(), w.size() * sizeof(float)) << '\n';
    return o.str();
}

/**
 * FNV-1a of resultDump per matrix cell (MatrixCell order) and
 * precision (fp32, fp16, int32), recorded before the codec became one
 * class. No perfbench workload runs a quantized wire, so these are
 * what pin the fp16 and int32 encode and decode paths end to end: a
 * codec change that moves one bit of any run fails here.
 */
constexpr std::uint64_t kMatrixDigests[6][3] = {
    {0xf6bc49d5e7193440, 0x7acfab4e3780e080, 0x0b4b48810cd6f930}, // SyncPs
    {0xb7da8e7ca205f5ff, 0xf50e568b72f90520, 0x76ee9d285e13ff1f}, // SyncAr
    {0x9c3e600001cc9609, 0x01e68a3e374bb88a, 0x6621cbcc0d5dbe91}, // SyncIsw
    {0x2a7ea9adc247da17, 0x1cf0c8c0569aa0fe, 0x9402f958736c2758}, // AsyncPs
    {0xe9aaede81c70d444, 0xcd9272eee6c669cf, 0x2305e22210b0480f}, // AsyncIsw
    {0x926efda2e9dad01e, 0x4b56fe1d1a8453e4, 0x6259093ac2339ec5}, // ShardedPs
};

/** Every strategy must finish a short run at every precision. Normal
 *  PPO gradients never saturate a codec or the switch's integer
 *  datapath, so every clamp and rescale counter reads 0 at every
 *  precision: a codec change that starts clamping them fails here. */
class PipelineMatrix : public ::testing::TestWithParam<MatrixCell>
{
};

TEST_P(PipelineMatrix, AllPrecisionsTrainToCompletion)
{
    std::size_t p = 0; // column of kMatrixDigests
    for (auto prec : {net::Precision::kFp32, net::Precision::kFp16,
                      net::Precision::kInt32}) {
        JobConfig cfg = JobConfig::forBenchmark(
            rl::Algo::kPpo, strategyOf(GetParam()), 4);
        cfg.ps_shards = psShardsOf(GetParam());
        cfg.wire_model_bytes = 0; // actual model size: fast tests
        cfg.stop.max_iterations = 4;
        cfg.curve_every = 4;
        cfg.precision = prec;
        const auto job = makeJob(cfg);
        const RunResult res = job->run();
        const std::string run = std::string(strategyName(cfg.strategy)) +
                                "/" + net::precisionName(prec);
        ASSERT_TRUE(res.ok()) << run << ": " << res.error;
        EXPECT_GE(res.iterations, 4u);
        for (const char *key :
             {"quant_value_clamps", "quant_exp_clamps",
              "switch_overflow_clamps", "switch_exp_rescales"})
            EXPECT_EQ(res.extras.at(key), 0.0) << run << ": " << key;

        const std::string dump = resultDump(*job, res);
        const std::uint64_t got = ml::fnv1a(dump.data(), dump.size());
        const std::uint64_t want =
            kMatrixDigests[static_cast<int>(GetParam())][p++];
        if (got != want)
            ADD_FAILURE() << run << " (" << psShardsOf(GetParam())
                          << " PS shards): results digest 0x" << std::hex
                          << got << ", recorded 0x" << want << std::dec
                          << "\n"
                          << dump;
    }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PipelineMatrix, allCells(),
                         cellName);

TEST(PipelineWire, Fp16HalvesThePaperWireModel)
{
    // The retired bench-side hack divided wire_model_bytes by two;
    // the pipeline must reproduce that timing model exactly.
    JobConfig cfg =
        JobConfig::forBenchmark(rl::Algo::kDqn, StrategyKind::kSyncPs, 4);
    cfg.stop.max_iterations = 3;

    JobConfig halved = cfg;
    halved.wire_model_bytes /= 2;
    const RunResult hacked = runJob(halved);

    cfg.precision = net::Precision::kFp16;
    const RunResult piped = runJob(cfg);

    ASSERT_TRUE(hacked.ok()) << hacked.error;
    ASSERT_TRUE(piped.ok()) << piped.error;
    EXPECT_EQ(piped.total_time, hacked.total_time);
}

} // namespace
} // namespace isw::dist
