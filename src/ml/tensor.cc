#include "ml/tensor.hh"

#include <cmath>
#include <cstring>

namespace isw::ml {

namespace {

// Four packed floats: one SSE register on x86-64 and one NEON register
// on AArch64 without any -march flag, so the kernels vectorize in the
// default -O2 build. With the GCC/Clang vector extension, + and * act
// lane by lane and a scalar operand is broadcast: `acc += s * v` does in
// each lane exactly the float multiply and add of the scalar statement.
// A lane only ever holds one output element and adds that element's
// terms in the order of the plain loops (b + x0*w0 + x1*w1 + …), never
// reassociating a sum, so results are bit-identical to them.
using F4 = float __attribute__((vector_size(16)));

inline F4
load4(const float *p)
{
    F4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store4(float *p, F4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/** b + x[0]*w[0] + x[1]*w[1] + …, added in i order. */
inline float
dotFrom(float b, const float *x, const float *w, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        b += x[i] * w[i];
    return b;
}

/**
 * out[o] = b[o] + Σ_i x[i]*w[o][i] for the outputs o < @p ovec (a
 * multiple of 4) of one input row, reading the weight rows in place:
 * the products of each 4x4 weight block are transposed in registers,
 * so lane k of the accumulator is output o+k and still adds its
 * products in i order.
 */
void
forwardRow(const float *x, const float *w, const float *b, std::size_t in,
           std::size_t ovec, float *out)
{
    for (std::size_t o = 0; o < ovec; o += 4) {
        const float *w0 = w + o * in;
        const float *w1 = w0 + in;
        const float *w2 = w1 + in;
        const float *w3 = w2 + in;
        F4 acc = load4(b + o);
        std::size_t i = 0;
        for (; i + 4 <= in; i += 4) {
            const F4 xv = load4(x + i);
            const F4 p0 = load4(w0 + i) * xv, p1 = load4(w1 + i) * xv;
            const F4 p2 = load4(w2 + i) * xv, p3 = load4(w3 + i) * xv;
            const F4 lo01 = __builtin_shufflevector(p0, p1, 0, 4, 1, 5);
            const F4 lo23 = __builtin_shufflevector(p2, p3, 0, 4, 1, 5);
            const F4 hi01 = __builtin_shufflevector(p0, p1, 2, 6, 3, 7);
            const F4 hi23 = __builtin_shufflevector(p2, p3, 2, 6, 3, 7);
            acc += __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
            acc += __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
            acc += __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
            acc += __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
        }
        for (; i < in; ++i)
            acc += x[i] * F4{w0[i], w1[i], w2[i], w3[i]};
        store4(out + o, acc);
    }
}

/**
 * y[j] += s[t*ss] * a[t*as + j] for t ascending, for every j < n. Each
 * y[j] stays in a register for the whole sum. Strips of 16 floats (four
 * independent add chains, enough to hide the add latency) cover the
 * hidden layers' widths; strips of 4, then single elements, cover the
 * rest.
 */
void
addScaledRows(float *y, std::size_t n, const float *s, std::size_t ss,
              const float *a, std::size_t as, std::size_t terms)
{
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        F4 y0 = load4(y + j), y1 = load4(y + j + 4);
        F4 y2 = load4(y + j + 8), y3 = load4(y + j + 12);
        for (std::size_t t = 0; t < terms; ++t) {
            const float g = s[t * ss];
            const float *at = a + t * as + j;
            y0 += g * load4(at);
            y1 += g * load4(at + 4);
            y2 += g * load4(at + 8);
            y3 += g * load4(at + 12);
        }
        store4(y + j, y0);
        store4(y + j + 4, y1);
        store4(y + j + 8, y2);
        store4(y + j + 12, y3);
    }
    for (; j + 4 <= n; j += 4) {
        F4 y0 = load4(y + j);
        for (std::size_t t = 0; t < terms; ++t)
            y0 += s[t * ss] * load4(a + t * as + j);
        store4(y + j, y0);
    }
    for (; j < n; ++j) {
        float yj = y[j];
        for (std::size_t t = 0; t < terms; ++t)
            yj += s[t * ss] * a[t * as + j];
        y[j] = yj;
    }
}

} // namespace

void
affineForward(const Matrix &x, const Matrix &w, const Vec &b, Matrix &out)
{
    const std::size_t batch = x.rows();
    const std::size_t in = x.cols();
    const std::size_t outdim = w.rows();
    assert(w.cols() == in);
    assert(b.size() == outdim);
    out = Matrix(batch, outdim);

    // Every out[r][o] is b[o] + x[r][0]*w[o][0] + x[r][1]*w[o][1] + …,
    // added in i order, as the naive dot product does (a float
    // reduction cannot be reordered without changing results). The
    // kernels vectorize across outputs and rows instead: outputs
    // below `ovec` in lanes of 4, rows below `rvec` in blocks of 4.
    const std::size_t ovec = outdim & ~std::size_t{3};
    const std::size_t rvec = batch & ~std::size_t{3};
    const float *xp = x.data();
    const float *wp = w.data();
    const float *bp = b.data();
    float *op = out.data();

    if (rvec > 0) {
        // Blocks of 4 rows x 4 outputs over a transposed weight
        // scratch: one load of wt[i][o..o+3] feeds four accumulators,
        // which stay in registers for the whole i loop.
        thread_local Vec wt_scratch;
        wt_scratch.resize(in * ovec);
        float *__restrict__ wt = wt_scratch.data();
        for (std::size_t o = 0; o < ovec; ++o)
            for (std::size_t i = 0; i < in; ++i)
                wt[i * ovec + o] = wp[o * in + i];
        for (std::size_t r = 0; r < rvec; r += 4) {
            const float *x0 = xp + r * in;
            const float *x1 = x0 + in;
            const float *x2 = x1 + in;
            const float *x3 = x2 + in;
            for (std::size_t o = 0; o < ovec; o += 4) {
                F4 a0 = load4(bp + o);
                F4 a1 = a0, a2 = a0, a3 = a0;
                for (std::size_t i = 0; i < in; ++i) {
                    const F4 wv = load4(wt + i * ovec + o);
                    a0 += x0[i] * wv;
                    a1 += x1[i] * wv;
                    a2 += x2[i] * wv;
                    a3 += x3[i] * wv;
                }
                float *o0 = op + r * outdim + o;
                store4(o0, a0);
                store4(o0 + outdim, a1);
                store4(o0 + 2 * outdim, a2);
                store4(o0 + 3 * outdim, a3);
            }
        }
    }
    // Leftover rows, and every row of a call with fewer than 4 (an
    // agent choosing one action), skip the transpose.
    for (std::size_t r = rvec; r < batch; ++r)
        forwardRow(xp + r * in, wp, bp, in, ovec, op + r * outdim);
    for (std::size_t r = 0; r < batch; ++r)
        for (std::size_t o = ovec; o < outdim; ++o)
            op[r * outdim + o] =
                dotFrom(bp[o], xp + r * in, wp + o * in, in);
}

void
affineBackward(const Matrix &dy, const Matrix &x, const Matrix &w, Matrix &dw,
               Vec &db, Matrix &dx)
{
    const std::size_t batch = x.rows();
    const std::size_t in = x.cols();
    const std::size_t outdim = w.rows();
    assert(dy.rows() == batch && dy.cols() == outdim);
    assert(dw.rows() == outdim && dw.cols() == in);
    assert(db.size() == outdim);
    dx = Matrix(batch, in);
    const float *dyp = dy.data();

    // Three passes. Each element adds its terms in the order one fused
    // loop over (r, o, i) would: db[o] and dW[o][i] over r ascending,
    // dX[r][i] over o ascending from the matrix's 0.0f (a sum whose
    // products are all -0.0f is +0.0f from there, but would be -0.0f
    // if it started from its first product).
    for (std::size_t r = 0; r < batch; ++r)
        for (std::size_t o = 0; o < outdim; ++o)
            db[o] += dyp[r * outdim + o];
    for (std::size_t o = 0; o < outdim; ++o)
        addScaledRows(dw.data() + o * in, in, dyp + o, outdim, x.data(), in,
                      batch);
    for (std::size_t r = 0; r < batch; ++r)
        addScaledRows(dx.data() + r * in, in, dyp + r * outdim, 1, w.data(),
                      in, outdim);
}

void
axpy(float a, std::span<const float> x, std::span<float> y)
{
    assert(x.size() == y.size());
    const std::size_t n = x.size();
    const float *__restrict__ xp = x.data();
    float *__restrict__ yp = y.data();
    for (std::size_t i = 0; i < n; ++i)
        yp[i] += a * xp[i];
}

float
dot(std::span<const float> a, std::span<const float> b)
{
    assert(a.size() == b.size());
    float acc = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

float
l2norm(std::span<const float> v)
{
    return std::sqrt(dot(v, v));
}

} // namespace isw::ml
