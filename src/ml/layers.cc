#include "ml/layers.hh"

#include <cmath>

namespace isw::ml {

Linear::Linear(std::size_t in, std::size_t out, sim::Rng &rng,
               std::string name)
    : name_(std::move(name)), w_(out, in), b_(out, 0.0f), gw_(out, in),
      gb_(out, 0.0f)
{
    // Xavier/Glorot uniform: U(-a, a), a = sqrt(6 / (in + out)).
    const double a =
        std::sqrt(6.0 / static_cast<double>(in + out));
    for (float &v : w_.raw())
        v = static_cast<float>(rng.uniform(-a, a));
}

Matrix
Linear::forward(const Matrix &x)
{
    x_ = x;
    Matrix y;
    affineForward(x, w_, b_, y);
    return y;
}

Matrix
Linear::backward(const Matrix &dy)
{
    Matrix dx;
    affineBackward(dy, x_, w_, gw_, gb_, dx);
    return dx;
}

void
Linear::backwardParams(const Matrix &dy)
{
    affineParamGrads(dy, x_, gw_, gb_);
}

void
Linear::collectParams(std::vector<ParamRef> &out)
{
    out.push_back({name_ + ".w", w_.raw(), gw_.raw()});
    out.push_back({name_ + ".b", b_, gb_});
}

Matrix
ReLU::forward(const Matrix &x)
{
    y_ = x;
    for (float &v : y_.raw())
        v = v > 0.0f ? v : 0.0f;
    return y_;
}

Matrix
ReLU::backward(const Matrix &dy)
{
    Matrix dx = dy;
    for (std::size_t i = 0; i < dx.raw().size(); ++i)
        if (y_.raw()[i] <= 0.0f)
            dx.raw()[i] = 0.0f;
    return dx;
}

Matrix
Tanh::forward(const Matrix &x)
{
    y_.resize(x.rows(), x.cols());
    tanhForward(x.raw(), y_.raw());
    return y_;
}

Matrix
Tanh::backward(const Matrix &dy)
{
    Matrix dx = dy;
    tanhBackward(y_.raw(), dx.raw());
    return dx;
}

} // namespace isw::ml
