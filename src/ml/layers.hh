/**
 * @file
 * Neural-network layers with explicit backward passes.
 *
 * Layers cache whatever the backward pass needs during forward();
 * backward() accumulates parameter gradients (callers zero them via
 * ParamSet) and returns the gradient w.r.t. the layer input.
 */

#ifndef ISW_ML_LAYERS_HH
#define ISW_ML_LAYERS_HH

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hh"
#include "sim/random.hh"

namespace isw::ml {

/** A named view of one parameter tensor and its gradient. */
struct ParamRef
{
    std::string name;
    std::span<float> value;
    std::span<float> grad;
};

/** Base class for differentiable layers. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Forward a batch; caches activations for backward. */
    virtual Matrix forward(const Matrix &x) = 0;

    /** Propagate upstream gradient; accumulates parameter grads. */
    virtual Matrix backward(const Matrix &dy) = 0;

    /** backward() for a caller that discards the input gradient: a
     *  layer that can skip computing it overrides this. */
    virtual void backwardParams(const Matrix &dy) { backward(dy); }

    /** Append this layer's parameters to @p out. */
    virtual void collectParams(std::vector<ParamRef> &out) { (void)out; }
};

/** Fully connected layer: y = x W^T + b. */
class Linear : public Layer
{
  public:
    /**
     * @param in Input features.
     * @param out Output features.
     * @param rng Initialization stream (Xavier-uniform weights).
     * @param name Parameter name prefix.
     */
    Linear(std::size_t in, std::size_t out, sim::Rng &rng,
           std::string name = "linear");

    Matrix forward(const Matrix &x) override;
    Matrix backward(const Matrix &dy) override;
    void backwardParams(const Matrix &dy) override;
    void collectParams(std::vector<ParamRef> &out) override;

    std::size_t inDim() const { return w_.cols(); }
    std::size_t outDim() const { return w_.rows(); }
    Matrix &weight() { return w_; }
    Vec &bias() { return b_; }

  private:
    std::string name_;
    Matrix w_;  ///< (out, in)
    Vec b_;     ///< (out)
    Matrix gw_; ///< gradient of w_
    Vec gb_;    ///< gradient of b_
    Matrix x_;  ///< cached input
};

/**
 * A bare trainable parameter vector (no forward pass). Used for free
 * parameters such as a Gaussian policy's state-independent log-std.
 */
class ParamVector : public Layer
{
  public:
    ParamVector(std::size_t n, float init, std::string name = "param")
        : name_(std::move(name)), v_(n, init), g_(n, 0.0f)
    {}

    Matrix forward(const Matrix &x) override { return x; }
    Matrix backward(const Matrix &dy) override { return dy; }
    void collectParams(std::vector<ParamRef> &out) override
    {
        out.push_back({name_, v_, g_});
    }

    Vec &value() { return v_; }
    Vec &grad() { return g_; }

  private:
    std::string name_;
    Vec v_;
    Vec g_;
};

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Matrix forward(const Matrix &x) override;
    Matrix backward(const Matrix &dy) override;

  private:
    Matrix y_; ///< cached output (mask source)
};

/** Hyperbolic tangent. */
class Tanh : public Layer
{
  public:
    Matrix forward(const Matrix &x) override;
    Matrix backward(const Matrix &dy) override;

  private:
    Matrix y_; ///< cached output
};

} // namespace isw::ml

#endif // ISW_ML_LAYERS_HH
