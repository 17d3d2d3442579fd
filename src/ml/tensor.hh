/**
 * @file
 * Minimal dense math types for the NN substrate: a row-major float
 * matrix and a few free-function kernels, sized for the small models
 * RL training uses. The dense-layer kernels are register-blocked over
 * 4-float vectors, so they vectorize in the default -O2 build, and add
 * every output's terms in the order of the plain loops: results are
 * bit-identical at every optimization level. The tanh kernel runs the
 * C library's float tanh four lanes at a time and returns its bits on
 * every input.
 */

#ifndef ISW_ML_TENSOR_HH
#define ISW_ML_TENSOR_HH

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace isw::ml {

/** Contiguous float vector. */
using Vec = std::vector<float>;

/** Row-major dense matrix. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), d_(rows * cols, fill)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return d_.size(); }

    float &at(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return d_[r * cols_ + c];
    }
    float at(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return d_[r * cols_ + c];
    }

    float *data() { return d_.data(); }
    const float *data() const { return d_.data(); }

    std::span<float> row(std::size_t r)
    {
        assert(r < rows_);
        return {d_.data() + r * cols_, cols_};
    }
    std::span<const float> row(std::size_t r) const
    {
        assert(r < rows_);
        return {d_.data() + r * cols_, cols_};
    }

    void fill(float v) { d_.assign(d_.size(), v); }

    /** Take the shape rows x cols, keeping the storage; the element
     *  values are then unspecified, for a caller that writes them all. */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        d_.resize(rows * cols);
    }

    std::vector<float> &raw() { return d_; }
    const std::vector<float> &raw() const { return d_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> d_;
};

/** out(B,O) = x(B,I) * wT(O,I)^T + b(O), the dense-layer kernel. */
void affineForward(const Matrix &x, const Matrix &w, const Vec &b,
                   Matrix &out);

/**
 * Dense-layer backward: given upstream dY(B,O), cached input X(B,I),
 * and weights W(O,I): accumulate dW += dY^T X, db += colsum(dY), and
 * produce dX = dY W.
 */
void affineBackward(const Matrix &dy, const Matrix &x, const Matrix &w,
                    Matrix &dw, Vec &db, Matrix &dx);

/**
 * The parameter half of affineBackward: dW += dY^T X and db +=
 * colsum(dY), without the dX pass, for a first layer whose input
 * gradient nobody reads.
 */
void affineParamGrads(const Matrix &dy, const Matrix &x, Matrix &dw,
                      Vec &db);

/**
 * y[i] = tanh(x[i]) (sizes must match; @p y may be @p x). Every result
 * has the bits of the C library's tanhf (fdlibm's algorithm, as glibc
 * runs it), NaN payloads included, whatever the platform's own tanhf.
 */
void tanhForward(std::span<const float> x, std::span<float> y);

/** g[i] *= 1 - y[i]*y[i]: the tanh backward, given the forward's
 *  output @p y, on the upstream gradient @p g in place. */
void tanhBackward(std::span<const float> y, std::span<float> g);

/** y += a * x elementwise (sizes must match). */
void axpy(float a, std::span<const float> x, std::span<float> y);

/** Dot product. */
float dot(std::span<const float> a, std::span<const float> b);

/** Euclidean norm. */
float l2norm(std::span<const float> v);

} // namespace isw::ml

#endif // ISW_ML_TENSOR_HH
