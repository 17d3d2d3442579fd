#include "ml/tensor.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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
/** The same four lanes as ints, and as unsigned ints for bit arithmetic
 *  that must wrap. A comparison of two vectors gives an I4 mask (-1 where
 *  true, 0 where false), and `m ? a : b` picks lanes by such a mask. */
using I4 = std::int32_t __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));

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

inline U4
bits(F4 v)
{
    return std::bit_cast<U4>(v);
}

inline U4
bits(I4 v)
{
    return std::bit_cast<U4>(v);
}

inline F4
floats(U4 v)
{
    return std::bit_cast<F4>(v);
}

/** True when some lane of the mask @p m is set. */
inline bool
anyLane(I4 m)
{
    const auto halves = std::bit_cast<std::array<std::uint64_t, 2>>(m);
    return (halves[0] | halves[1]) != 0;
}

/**
 * tanh of four floats with the bits of the C library's tanhf: fdlibm's
 * s_tanhf.c over its s_expm1f.c, which glibc runs unchanged. Each lane
 * does the scalar code's IEEE operations in its order; the branches
 * become masks, and a lane takes the result of its own branch. That
 * holds under any vector width and any ISA as long as no multiply and
 * add fuse into one rounding, which is why src/ builds with
 * -ffp-contract=off.
 *
 * The scalar code, for |x| in [2^-55, 22): t = expm1f(2|x|) and
 * z = 1 - 2/(t+2) when |x| >= 1, else t = expm1f(-2|x|) and
 * z = -t/(t+2); the result is z with x's sign. expm1f(a) reduces
 * a = k ln2 + r, with |r| <= ln2/2, evaluates r's polynomial, and
 * rebuilds the result in a form that depends on k. Here a lies in
 * (-2, 44), so k takes these values, each with its branch below:
 *   k = 0 (|a| <= 0.5 ln2), k = -1 (|a| < 1.5 ln2),
 *   k <= -2 (a <= -1.5 ln2), and for a >= 2: 3 <= k < 23,
 *   23 <= k <= 56 and k > 56.
 * The other lanes: |a| < 2^-25 (expm1f returns a), |x| < 2^-55 and ±0
 * (x*(1+x), which is x), |x| >= 22 and ±inf (±1) and NaN (1/x+1, the
 * NaN quieted).
 *
 * The common lanes are 2^-26 <= |x| < 7.8 (k <= 22), where NN
 * pre-activations lie. With @p Full false the kernel handles only
 * those and returns false, before the polynomial, when a lane lies
 * elsewhere; the caller then reruns the vector with @p Full true,
 * which handles every lane.
 */
template <bool Full>
[[gnu::always_inline]] inline bool
tanh4(F4 x, F4 &out)
{
    constexpr float ln2_hi = 6.9313812256e-01f; // 0x3f317180
    constexpr float ln2_lo = 9.0580006145e-06f; // 0x3717f7d1
    constexpr float invln2 = 1.4426950216e+00f; // 0x3fb8aa3b
    constexpr float Q1 = -3.3333335072e-02f;    // 0xbd088889
    constexpr float Q2 = 1.5873016091e-03f;     // 0x3ad00d01
    constexpr float Q3 = -7.9365076090e-05f;    // 0xb8a670cd
    constexpr float Q4 = 4.0082177293e-06f;     // 0x36867e54
    constexpr float Q5 = -2.0109921195e-07f;    // 0xb457edbb

    // tanhf: classify |x| by its bits.
    const U4 jx = bits(x);
    const U4 sign = jx & 0x80000000u;
    const I4 ix = std::bit_cast<I4>(jx & 0x7fffffffu);
    const I4 big = ix > 0x3f7fffff;  // |x| >= 1: expm1f(2|x|)
    const I4 edge = ix > 0x41afffff; // |x| >= 22, inf or NaN
    // The expm1f argument a = ±2|x|; an edge lane computes a = 0, so
    // every float-to-int conversion below sees a value in range.
    const U4 neg = bits(~big) & 0x80000000u; // a's sign bit
    const U4 ha = bits(2.0f * floats(bits(ix & ~edge)));
    const F4 a = floats(ha | neg);
    const I4 hx = std::bit_cast<I4>(ha); // |a|'s bits, as expm1f's hx

    // expm1f's argument reduction. Its three forms are one here: k = 0
    // and k = -1 lanes take hi = a - t*ln2_hi and lo = t*ln2_lo with
    // t = 0 and -1, which give expm1f's hi = a, lo = 0 and
    // hi = a + ln2_hi, lo = -ln2_lo exactly.
    const I4 gen = hx > 0x3f851591; // |a| >= 1.5 ln2: k from a/ln2
    const I4 mid = hx > 0x3eb17218; // |a| > 0.5 ln2; as k, -1 is right
    const I4 kr =
        __builtin_convertvector(invln2 * a + floats(neg | 0x3f000000u), I4);
    const I4 k = gen ? kr : mid;
    const I4 tiny_a = hx < 0x33000000; // |a| < 2^-25, and every edge lane
    if constexpr (!Full) {
        if (anyLane(tiny_a | (k > 22)))
            return false;
    }
    const F4 t = __builtin_convertvector(k, F4);
    const F4 hi = a - t * ln2_hi;
    const F4 lo = t * ln2_lo;
    const F4 r = hi - lo;
    const F4 c = (hi - r) - lo; // +0 on the k = 0 lanes

    // The polynomial, then expm1f's e; with c = +0 the second line is
    // the k = 0 branch's r*e - hxs.
    const F4 hfx = 0.5f * r;
    const F4 hxs = r * hfx;
    const F4 r1 =
        1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    const F4 t3 = 3.0f - r1 * hfx;
    F4 e = hxs * ((r1 - t3) / (6.0f - r * t3));
    e = (r * (e - c) - c) - hxs;

    // Rebuild expm1f(a) by k. k = 0: r - e. k = -1: 0.5*(r-e) - 0.5.
    // k <= -2 or k > 56: (1 - (e-r)) * 2^k - 1. 3 <= k < 23:
    // ((1 - 2^-k) - (e-r)) * 2^k. 23 <= k <= 56: ((r - (e + 2^-k)) + 1)
    // * 2^k. Scaling by 2^k adds k to the exponent bits, in unsigned
    // lanes; 1 - 2^-k is the scalar code's bit pattern
    // 0x3f800000 - (0x1000000 >> k).
    const F4 q = r - e;
    I4 pow_m1 = k < -1;
    if constexpr (Full)
        pow_m1 |= k > 56;
    const U4 ku = bits(k);
    const F4 p2k = floats((0x7fu - ku) << 23); // 2^-k
    F4 y = (1.0f - floats(bits(~pow_m1) & bits(p2k))) - (e - r);
    if constexpr (Full)
        y = (k > 22) & ~pow_m1 ? (r - (e + p2k)) + 1.0f : y;
    y = floats(bits(y) + (ku << 23));
    y = y - floats(bits(pow_m1) & 0x3f800000u);
    F4 em = gen ? y : (mid ? 0.5f * q - 0.5f : q);
    if constexpr (Full)
        em = tiny_a ? a : em;

    // Back in tanhf.
    const F4 d = (big ? 2.0f + F4{} : -em) / (em + 2.0f);
    const F4 z = big ? 1.0f - d : d;
    out = floats(bits(z) ^ sign);
    if constexpr (Full) {
        const F4 one = floats(sign | 0x3f800000u); // ±(1 - 1e-30f)
        const F4 edge_z = ix > 0x7f7fffff ? 1.0f / x + one : one;
        out = edge ? edge_z : (ix < 0x24000000 ? x * (1.0f + x) : out);
    }
    return true;
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
affineParamGrads(const Matrix &dy, const Matrix &x, Matrix &dw, Vec &db)
{
    const std::size_t batch = x.rows();
    const std::size_t in = x.cols();
    const std::size_t outdim = dw.rows();
    assert(dy.rows() == batch && dy.cols() == outdim);
    assert(dw.cols() == in);
    assert(db.size() == outdim);
    const float *dyp = dy.data();

    // db[o] and dW[o][i] add their terms over r ascending, the order of
    // one fused loop over (r, o, i).
    for (std::size_t r = 0; r < batch; ++r)
        for (std::size_t o = 0; o < outdim; ++o)
            db[o] += dyp[r * outdim + o];
    for (std::size_t o = 0; o < outdim; ++o)
        addScaledRows(dw.data() + o * in, in, dyp + o, outdim, x.data(), in,
                      batch);
}

void
affineBackward(const Matrix &dy, const Matrix &x, const Matrix &w, Matrix &dw,
               Vec &db, Matrix &dx)
{
    const std::size_t batch = x.rows();
    const std::size_t in = x.cols();
    const std::size_t outdim = w.rows();
    assert(dw.rows() == outdim && dw.cols() == in);
    affineParamGrads(dy, x, dw, db);
    // dX[r][i] adds over o ascending from the matrix's 0.0f (a sum whose
    // products are all -0.0f is +0.0f from there, but would be -0.0f if
    // it started from its first product).
    dx = Matrix(batch, in);
    for (std::size_t r = 0; r < batch; ++r)
        addScaledRows(dx.data() + r * in, in, dy.data() + r * outdim, 1,
                      w.data(), in, outdim);
}

void
tanhForward(std::span<const float> x, std::span<float> y)
{
    assert(x.size() == y.size());
    const std::size_t n = x.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const F4 v = load4(x.data() + i);
        F4 t{};
        if (!tanh4<false>(v, t))
            tanh4<true>(v, t);
        store4(y.data() + i, t);
    }
    if (i < n) {
        // The last 1-3 floats go through a zero-padded copy, so no
        // access leaves the row.
        std::array<float, 4> buf{};
        std::memcpy(buf.data(), x.data() + i, (n - i) * sizeof(float));
        F4 t{};
        tanh4<true>(load4(buf.data()), t);
        store4(buf.data(), t);
        std::memcpy(y.data() + i, buf.data(), (n - i) * sizeof(float));
    }
}

void
tanhBackward(std::span<const float> y, std::span<float> g)
{
    assert(y.size() == g.size());
    const std::size_t n = y.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const F4 t = load4(y.data() + i);
        store4(g.data() + i, load4(g.data() + i) * (1.0f - t * t));
    }
    for (; i < n; ++i)
        g[i] *= 1.0f - y[i] * y[i];
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
