/** @file Unit tests for the dense math kernels. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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
        if (std::bit_cast<std::uint32_t>(got[k]) !=
            std::bit_cast<std::uint32_t>(want[k]))
            return ::testing::AssertionFailure()
                   << "element " << k << ": " << got[k] << " (0x" << std::hex
                   << std::bit_cast<std::uint32_t>(got[k]) << ") != "
                   << want[k] << " (0x"
                   << std::bit_cast<std::uint32_t>(want[k]) << ")";
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
