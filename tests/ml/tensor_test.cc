/** @file Unit tests for the dense math kernels. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "ml/layers.hh"
#include "ml/tensor.hh"
#include "sim/random.hh"

namespace isw::ml {
namespace {

TEST(Matrix, ShapeAndAccess)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
    m.at(0, 1) = 7.0f;
    EXPECT_FLOAT_EQ(m.at(0, 1), 7.0f);
}

TEST(Matrix, RowSpanAliasesStorage)
{
    Matrix m(2, 2);
    auto row = m.row(1);
    row[0] = 4.0f;
    EXPECT_FLOAT_EQ(m.at(1, 0), 4.0f);
}

TEST(Matrix, FillOverwrites)
{
    Matrix m(2, 2, 1.0f);
    m.fill(9.0f);
    for (float v : m.raw())
        EXPECT_FLOAT_EQ(v, 9.0f);
}

TEST(AffineForward, ComputesXWTPlusB)
{
    // x = [1 2], W = [[1 0], [0 1], [1 1]], b = [10 20 30]
    Matrix x(1, 2);
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    Matrix w(3, 2);
    w.at(0, 0) = 1.0f;
    w.at(1, 1) = 1.0f;
    w.at(2, 0) = 1.0f;
    w.at(2, 1) = 1.0f;
    Vec b{10.0f, 20.0f, 30.0f};
    Matrix y;
    affineForward(x, w, b, y);
    ASSERT_EQ(y.rows(), 1u);
    ASSERT_EQ(y.cols(), 3u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2), 33.0f);
}

TEST(AffineForward, BatchedRowsIndependent)
{
    Matrix x(2, 1);
    x.at(0, 0) = 1.0f;
    x.at(1, 0) = -1.0f;
    Matrix w(1, 1);
    w.at(0, 0) = 3.0f;
    Vec b{0.5f};
    Matrix y;
    affineForward(x, w, b, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);
    EXPECT_FLOAT_EQ(y.at(1, 0), -2.5f);
}

TEST(AffineBackward, GradientsMatchManualDerivation)
{
    // y = x W^T + b with x=[1,2], W=[[3,4]], b=[0]; dy = [1].
    Matrix x(1, 2);
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    Matrix w(1, 2);
    w.at(0, 0) = 3.0f;
    w.at(0, 1) = 4.0f;
    Matrix dy(1, 1);
    dy.at(0, 0) = 1.0f;
    Matrix dw(1, 2);
    Vec db(1, 0.0f);
    Matrix dx;
    affineBackward(dy, x, w, dw, db, dx);
    EXPECT_FLOAT_EQ(dw.at(0, 0), 1.0f); // dL/dW = dy^T x
    EXPECT_FLOAT_EQ(dw.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(db[0], 1.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 3.0f); // dL/dx = dy W
    EXPECT_FLOAT_EQ(dx.at(0, 1), 4.0f);
}

TEST(AffineBackward, AccumulatesAcrossBatch)
{
    Matrix x(2, 1);
    x.at(0, 0) = 1.0f;
    x.at(1, 0) = 2.0f;
    Matrix w(1, 1, 1.0f);
    Matrix dy(2, 1, 1.0f);
    Matrix dw(1, 1);
    Vec db(1, 0.0f);
    Matrix dx;
    affineBackward(dy, x, w, dw, db, dx);
    EXPECT_FLOAT_EQ(dw.at(0, 0), 3.0f); // 1 + 2
    EXPECT_FLOAT_EQ(db[0], 2.0f);
}

/** out = x W^T + b in the plain loop order: each output adds its
 *  products to b[o] in i order. */
void
plainForward(const Matrix &x, const Matrix &w, const Vec &b, Matrix &out)
{
    out = Matrix(x.rows(), w.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t o = 0; o < w.rows(); ++o) {
            float acc = b[o];
            for (std::size_t i = 0; i < x.cols(); ++i)
                acc += x.at(r, i) * w.at(o, i);
            out.at(r, o) = acc;
        }
}

/** The fused backward loop: per row r, per output o, every input i. */
void
plainBackward(const Matrix &dy, const Matrix &x, const Matrix &w, Matrix &dw,
              Vec &db, Matrix &dx)
{
    dx = Matrix(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t o = 0; o < w.rows(); ++o) {
            const float g = dy.at(r, o);
            db[o] += g;
            for (std::size_t i = 0; i < x.cols(); ++i) {
                dw.at(o, i) += g * x.at(r, i);
                dx.at(r, i) += g * w.at(o, i);
            }
        }
}

/** Mostly U(-1, 1), with signed zeros and magnitudes near 1e±30 (whose
 *  products overflow to ±inf and then NaN); with @p specials, also
 *  NaN and ±inf inputs. */
float
kernelInput(sim::Rng &rng, bool specials)
{
    const float u = static_cast<float>(rng.uniform(-1.0, 1.0));
    constexpr float kInf = std::numeric_limits<float>::infinity();
    switch (rng.uniformInt(0, 19)) {
      case 0: return 0.0f;
      case 1: return -0.0f;
      case 2: return 1e30f;
      case 3: return -1e30f;
      case 4: return 1e30f * u;
      case 5: return 1e-30f * u;
      case 6: return specials ? std::numeric_limits<float>::quiet_NaN() : u;
      case 7: return specials ? kInf : u;
      case 8: return specials ? -kInf : u;
      default: return u;
    }
}

void
fillInputs(std::vector<float> &v, sim::Rng &rng, bool specials)
{
    for (float &f : v)
        f = kernelInput(rng, specials);
}

std::uint32_t
bitsOf(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

std::string
hexBits(float f)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", bitsOf(f));
    return buf;
}

/** Bit-for-bit equality. With @p nan_any, any NaN matches any NaN:
 *  when two NaNs with different payloads meet in an add, x86 keeps the
 *  first operand's, and for a commutative op the compiler picks the
 *  order, in the plain loops as much as in the kernels. */
::testing::AssertionResult
sameFloats(const std::vector<float> &got, const std::vector<float> &want,
           bool nan_any)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure() << "size " << got.size()
                                             << " != " << want.size();
    for (std::size_t k = 0; k < got.size(); ++k) {
        if (nan_any && std::isnan(got[k]) && std::isnan(want[k]))
            continue;
        if (bitsOf(got[k]) != bitsOf(want[k]))
            return ::testing::AssertionFailure()
                   << "element " << k << ": " << got[k] << " ("
                   << hexBits(got[k]) << ") != " << want[k] << " ("
                   << hexBits(want[k]) << ")";
    }
    return ::testing::AssertionSuccess();
}

/** Runs both kernels and their plain-loop references on one random
 *  problem of the given shape and compares every output. */
void
expectKernelsMatchPlainLoops(std::size_t batch, std::size_t in,
                             std::size_t out, sim::Rng &rng, bool specials)
{
    SCOPED_TRACE(::testing::Message() << "batch " << batch << ", in " << in
                                      << ", out " << out);
    Matrix x(batch, in), w(out, in), dy(batch, out), dw(out, in);
    Vec b(out), db(out);
    fillInputs(x.raw(), rng, specials);
    fillInputs(w.raw(), rng, specials);
    fillInputs(dy.raw(), rng, specials);
    fillInputs(dw.raw(), rng, specials);
    fillInputs(b, rng, specials);
    fillInputs(db, rng, specials);

    Matrix y, y_ref;
    affineForward(x, w, b, y);
    plainForward(x, w, b, y_ref);
    EXPECT_TRUE(sameFloats(y.raw(), y_ref.raw(), specials)) << "forward";

    Matrix dw_ref = dw, dx, dx_ref;
    Vec db_ref = db;
    affineBackward(dy, x, w, dw, db, dx);
    plainBackward(dy, x, w, dw_ref, db_ref, dx_ref);
    EXPECT_TRUE(sameFloats(dw.raw(), dw_ref.raw(), specials)) << "dW";
    EXPECT_TRUE(sameFloats(db, db_ref, specials)) << "db";
    EXPECT_TRUE(sameFloats(dx.raw(), dx_ref.raw(), specials)) << "dX";
}

TEST(AffineKernels, BitIdenticalToPlainLoops)
{
    // Batches of 1-5 (agents choosing actions) in a third of the
    // shapes, and sizes from 1 to 70: every block width and tail of
    // the kernels, and mostly sizes that are not multiples of 4.
    sim::Rng rng(24);
    for (int shape = 0; shape < 600; ++shape) {
        const auto dim = [&](std::int64_t hi) {
            return static_cast<std::size_t>(rng.uniformInt(1, hi));
        };
        const std::size_t batch = shape % 3 == 0 ? dim(5) : dim(70);
        const std::size_t in = dim(70);
        const std::size_t out = dim(70);
        expectKernelsMatchPlainLoops(batch, in, out, rng, /*specials=*/false);
        if (HasFailure())
            return;
    }
}

TEST(AffineKernels, NanAndInfInputsMatchPlainLoops)
{
    // 21 inputs and 10 outputs reach every strip and tail.
    sim::Rng rng(26);
    for (std::size_t batch : {1u, 2u, 7u, 33u})
        expectKernelsMatchPlainLoops(batch, 21, 10, rng, /*specials=*/true);
}

// ---------------------------------------------------------------------
// The tanh kernel against a scalar transcription of fdlibm's float tanh
// (s_tanhf.c over s_expm1f.c), the code of glibc's tanhf.

float
floatOf(std::uint32_t u)
{
    return std::bit_cast<float>(u);
}

/** fdlibm's expm1f for the arguments tanhf passes, -2 < a < 44. Its
 *  first block, which returns only for a >= 88.7, inf, NaN or
 *  a <= -27 ln2, never returns for them and is left out. */
float
fdlibmExpm1f(float a)
{
    constexpr float ln2_hi = 6.9313812256e-01f, ln2_lo = 9.0580006145e-06f,
                    invln2 = 1.4426950216e+00f, huge = 1.0e+30f;
    constexpr float Q1 = -3.3333335072e-02f, Q2 = 1.5873016091e-03f,
                    Q3 = -7.9365076090e-05f, Q4 = 4.0082177293e-06f,
                    Q5 = -2.0109921195e-07f;
    const std::uint32_t hx = bitsOf(a) & 0x7fffffffu;
    const bool neg = (bitsOf(a) & 0x80000000u) != 0;
    float x = a, c = 0.0f;
    std::int32_t k = 0;
    if (hx > 0x3eb17218u) { // |a| > 0.5 ln2
        float hi, lo;
        if (hx < 0x3f851592u) { // and |a| < 1.5 ln2
            hi = neg ? x + ln2_hi : x - ln2_hi;
            lo = neg ? -ln2_lo : ln2_lo;
            k = neg ? -1 : 1;
        } else {
            k = static_cast<std::int32_t>(invln2 * x + (neg ? -0.5f : 0.5f));
            const auto t = static_cast<float>(k);
            hi = x - t * ln2_hi;
            lo = t * ln2_lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < 0x33000000u) { // |a| < 2^-25
        const float t = huge + x;
        return x - (t - (huge + x));
    }
    const float hfx = 0.5f * x;
    const float hxs = x * hfx;
    const float r1 =
        1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    const float t = 3.0f - r1 * hfx;
    float e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    if (k == 1) {
        if (x < -0.25f)
            return -2.0f * (e - (x + 0.5f));
        return 1.0f + 2.0f * (x - e);
    }
    const std::uint32_t kexp = static_cast<std::uint32_t>(k) << 23;
    if (k <= -2 || k > 56) {
        const float y = 1.0f - (e - x);
        return floatOf(bitsOf(y) + kexp) - 1.0f;
    }
    if (k < 23) {
        const float t1 = floatOf(0x3f800000u - (0x1000000u >> k)); // 1-2^-k
        return floatOf(bitsOf(t1 - (e - x)) + kexp);
    }
    const float t2 = floatOf(static_cast<std::uint32_t>(0x7f - k) << 23);
    float y = x - (e + t2);
    y += 1.0f;
    return floatOf(bitsOf(y) + kexp);
}

/** fdlibm's tanhf. */
float
fdlibmTanhf(float x)
{
    const std::uint32_t jx = bitsOf(x);
    const std::uint32_t ix = jx & 0x7fffffffu;
    const bool neg = (jx & 0x80000000u) != 0;
    if (ix >= 0x7f800000u) // inf or NaN
        return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
    float z;
    if (ix < 0x41b00000u) { // |x| < 22
        if (ix == 0)
            return x;
        if (ix < 0x24000000u) // |x| < 2^-55
            return x * (1.0f + x);
        if (ix >= 0x3f800000u) { // |x| >= 1
            const float t = fdlibmExpm1f(2.0f * std::fabs(x));
            z = 1.0f - 2.0f / (t + 2.0f);
        } else {
            const float t = fdlibmExpm1f(-2.0f * std::fabs(x));
            z = -t / (t + 2.0f);
        }
    } else {
        z = 1.0f - 1.0e-30f;
    }
    return neg ? -z : z;
}

/** The smallest |x| bit pattern whose expm1f argument 2|x| reduces
 *  with k >= @p k: the k edges of the rebuild step. */
std::uint32_t
firstWithK(std::int32_t k)
{
    const auto kOf = [](std::uint32_t u) {
        return static_cast<std::int32_t>(1.4426950216e+00f *
                                             (2.0f * floatOf(u)) +
                                         0.5f);
    };
    std::uint32_t lo = 0x3f800000u, hi = 0x41b00000u; // k(lo) < k <= k(hi)
    while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        (kOf(mid) >= k ? hi : lo) = mid;
    }
    return hi;
}

/** Runs the kernel over @p in and compares each result's bits with
 *  the scalar reference. */
::testing::AssertionResult
kernelMatchesReference(const std::vector<float> &in)
{
    std::vector<float> out(in.size());
    tanhForward(in, out);
    for (std::size_t i = 0; i < in.size(); ++i) {
        const float want = fdlibmTanhf(in[i]);
        if (bitsOf(out[i]) != bitsOf(want))
            return ::testing::AssertionFailure()
                   << "tanh(" << hexBits(in[i]) << ") = " << hexBits(out[i])
                   << ", reference " << hexBits(want);
    }
    return ::testing::AssertionSuccess();
}

TEST(TanhKernel, MatchesFdlibmOnStridedSweepAndBranchEdges)
{
    // Every 1021st bit pattern from each of four starts covers both
    // signs, every exponent and the NaN range.
    std::vector<float> in;
    for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 1021)
        in.push_back(floatOf(static_cast<std::uint32_t>(u)));
    // Each branch edge and its neighbours, with either sign.
    const std::uint32_t edges[] = {
        0x00000000u,    // ±0
        0x00000001u,    // smallest subnormal
        0x00800000u,    // smallest normal
        0x24000000u,    // 2^-55
        0x32800000u,    // 2^-26: expm1f's |a| < 2^-25 edge
        0x3e317218u,    // |a| = 0.5 ln2: k = 0 / -1
        0x3f051592u,    // |a| = 1.5 ln2: k = -1 / -2
        0x3f800000u,    // 1: k = -3 / 3
        firstWithK(23), // k = 22 / 23
        firstWithK(57), // k = 56 / 57
        0x41b00000u,    // 22
        0x7f800000u,    // inf, largest finite, first NaN
        0x7fc00000u,    // quiet NaN
        0x7fc12345u,    // NaN payloads, quiet and signalling
        0x7f812345u,
        0x7ffffffeu,
    };
    for (const std::uint32_t e : edges)
        for (const std::uint32_t sign : {0u, 0x80000000u})
            for (const std::uint32_t u : {e - 1, e, e + 1})
                if (u <= 0x7fffffffu) // e - 1 below 0 wraps
                    in.push_back(floatOf(u | sign));
    EXPECT_TRUE(kernelMatchesReference(in));

    // Again with four distant parts of the sweep in the lanes of every
    // vector, so the lanes of one vector take different branches.
    const std::size_t quarter = in.size() / 4;
    std::vector<float> mixed(4 * quarter);
    for (std::size_t j = 0; j < quarter; ++j)
        for (std::size_t lane = 0; lane < 4; ++lane)
            mixed[4 * j + lane] = in[lane * quarter + j];
    EXPECT_TRUE(kernelMatchesReference(mixed));
}

TEST(TanhKernel, ReferenceMatchesGlibcTable)
{
    // tanhf's results from glibc 2.36 on x86-64, with one input or more
    // from each branch; they pin the reference above to the C library.
    constexpr std::array<std::array<std::uint32_t, 2>, 32> kTable{{
        {0x00000001u, 0x00000001u}, // smallest subnormal
        {0x80000000u, 0x80000000u}, // -0
        {0xa4000000u, 0xa4000000u}, // -2^-55: expm1f's |a| < 2^-25
        {0x2edbe6ffu, 0x2edbe6ffu}, // 1e-10
        {0xb2800000u, 0xb2800000u}, // -2^-26: k = 0
        {0x33d6bf95u, 0x33d6bf96u}, // 1e-7
        {0xba83126fu, 0xba83126cu}, // -1e-3
        {0x3dcccccdu, 0x3dcc1ebcu}, // 0.1
        {0xbe317218u, 0xbe2fb0cdu}, // last k = 0
        {0x3e317219u, 0x3e2fb0cdu}, // first k = -1
        {0xbe99999au, 0xbe9526edu}, // -0.3, 1 ulp from the rounded tanh
        {0x3f000000u, 0x3eec9a9fu}, // 0.5
        {0xbf051592u, 0xbef486f8u}, // first k = -2
        {0x3f333333u, 0x3f1ab7d8u}, // 0.7
        {0xbf5db3d7u, 0xbf33088au}, // -0.866: k = -3
        {0x3f7fffffu, 0x3f42f7d5u}, // 1 - ulp
        {0xbf800000u, 0xbf42f7d6u}, // -1: k = 3
        {0x3fc00000u, 0x3f67b7ccu}, // 1.5
        {0xc0000000u, 0xbf76ca83u}, // -2
        {0x40800000u, 0x3f7fd40cu}, // 4
        {0xc0c00000u, 0xbf7fff32u}, // -6
        {0x40e00000u, 0x3f7fffe4u}, // 7: k = 20
        {0xc0f9999au, 0xbf7ffffau}, // -7.8: k = 23
        {0x41000000u, 0x3f7ffffcu}, // 8
        {0xc1080000u, 0xbf7fffffu}, // -8.5
        {0x419d0000u, 0x3f800000u}, // 19.625: k = 57
        {0xc1b00000u, 0xbf800000u}, // -22
        {0x7f800000u, 0x3f800000u}, // inf
        {0xff800000u, 0xbf800000u}, // -inf
        {0x7fc00000u, 0x7fc00000u}, // NaN
        {0xff812345u, 0xffc12345u}, // signalling NaN: quieted, payload kept
        {0x7f812345u, 0x7fc12345u},
    }};
    std::vector<float> in;
    for (const auto &[x, tanhx] : kTable) {
        EXPECT_EQ(bitsOf(fdlibmTanhf(floatOf(x))), tanhx)
            << "tanh(" << hexBits(floatOf(x)) << ")";
        in.push_back(floatOf(x));
    }
    EXPECT_TRUE(kernelMatchesReference(in));
}

TEST(TanhKernel, RowsOfZeroToNineTouchNothingPastTheEnd)
{
    constexpr std::uint32_t kGuard = 0x7fc0deadu;
    sim::Rng rng(28);
    for (std::size_t n = 0; n <= 9; ++n) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        // Inputs in a buffer of exactly n floats, so a sanitizer build
        // catches a read past it; outputs followed by guard floats.
        std::vector<float> x(n), y(n);
        for (float &v : x)
            v = static_cast<float>(rng.uniform(-3.0, 3.0));
        for (float &v : y)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> out(n + 8, floatOf(kGuard));
        std::vector<float> grad(n + 8, floatOf(kGuard));
        std::copy(y.begin(), y.end(), grad.begin());

        tanhForward(x, std::span<float>(out).first(n));
        tanhBackward(y, std::span<float>(grad).first(n));
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bitsOf(out[i]), bitsOf(fdlibmTanhf(x[i])));
            EXPECT_EQ(bitsOf(grad[i]), bitsOf(y[i] * (1.0f - y[i] * y[i])));
        }
        for (std::size_t i = n; i < n + 8; ++i) {
            EXPECT_EQ(bitsOf(out[i]), kGuard) << "forward wrote " << i;
            EXPECT_EQ(bitsOf(grad[i]), kGuard) << "backward wrote " << i;
        }
    }
}

TEST(TanhKernel, LayerMatchesScalarLoopsWithNanAndInf)
{
    // Tanh::forward and ::backward against their former per-element
    // loops, with the reference in place of the C library's tanhf.
    sim::Rng rng(30);
    for (const auto &[rows, cols] :
         std::vector<std::array<std::size_t, 2>>{{1, 1}, {1, 3}, {1, 48},
                                                 {7, 13}, {64, 48}}) {
        SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
        Matrix x(rows, cols), dy(rows, cols);
        fillInputs(x.raw(), rng, /*specials=*/true);
        fillInputs(dy.raw(), rng, /*specials=*/true);
        for (float &v : x.raw())
            v *= static_cast<float>(rng.uniform(0.0, 30.0)); // every branch

        Tanh layer;
        const Matrix y = layer.forward(x);
        Matrix y_ref = x;
        for (float &v : y_ref.raw())
            v = fdlibmTanhf(v);
        EXPECT_TRUE(sameFloats(y.raw(), y_ref.raw(), /*nan_any=*/false));

        const Matrix dx = layer.backward(dy);
        Matrix dx_ref = dy;
        for (std::size_t i = 0; i < dx_ref.size(); ++i) {
            const float t = y_ref.raw()[i];
            dx_ref.raw()[i] *= 1.0f - t * t;
        }
        EXPECT_TRUE(sameFloats(dx.raw(), dx_ref.raw(), /*nan_any=*/true));
    }
}

TEST(Kernels, Axpy)
{
    Vec x{1.0f, 2.0f};
    Vec y{10.0f, 20.0f};
    axpy(2.0f, x, y);
    EXPECT_FLOAT_EQ(y[0], 12.0f);
    EXPECT_FLOAT_EQ(y[1], 24.0f);
}

TEST(Kernels, DotAndNorm)
{
    Vec a{3.0f, 4.0f};
    EXPECT_FLOAT_EQ(dot(a, a), 25.0f);
    EXPECT_FLOAT_EQ(l2norm(a), 5.0f);
}

} // namespace
} // namespace isw::ml
