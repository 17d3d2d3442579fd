#include "ml/network.hh"

#include <cmath>
#include <stdexcept>

namespace isw::ml {

Matrix
Network::forward(const Matrix &x)
{
    Matrix h = x;
    for (auto &layer : layers_)
        h = layer->forward(h);
    return h;
}

Matrix
Network::backward(const Matrix &dy)
{
    Matrix g = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

void
Network::backwardParams(const Matrix &dy)
{
    if (layers_.empty())
        return;
    Matrix g = dy;
    for (std::size_t i = layers_.size() - 1; i > 0; --i)
        g = layers_[i]->backward(g);
    layers_.front()->backwardParams(g);
}

void
Network::collectParams(std::vector<ParamRef> &out)
{
    for (auto &layer : layers_)
        layer->collectParams(out);
}

std::size_t
ParamSet::count() const
{
    std::size_t n = 0;
    for (const auto &r : refs_)
        n += r.value.size();
    return n;
}

void
ParamSet::copyValuesTo(Vec &out) const
{
    out.resize(count());
    std::size_t off = 0;
    for (const auto &r : refs_) {
        std::copy(r.value.begin(), r.value.end(), out.begin() + off);
        off += r.value.size();
    }
}

void
ParamSet::setValues(std::span<const float> in)
{
    if (in.size() != count())
        throw std::invalid_argument("ParamSet::setValues: size mismatch");
    std::size_t off = 0;
    for (const auto &r : refs_) {
        std::copy(in.begin() + off, in.begin() + off + r.value.size(),
                  r.value.begin());
        off += r.value.size();
    }
}

void
ParamSet::copyGradsTo(Vec &out) const
{
    out.resize(count());
    std::size_t off = 0;
    for (const auto &r : refs_) {
        std::copy(r.grad.begin(), r.grad.end(), out.begin() + off);
        off += r.grad.size();
    }
}

void
ParamSet::zeroGrads()
{
    for (auto &r : refs_)
        std::fill(r.grad.begin(), r.grad.end(), 0.0f);
}

void
ParamSet::accumulateGrads(std::span<const float> in)
{
    if (in.size() != count())
        throw std::invalid_argument("ParamSet::accumulateGrads: size");
    std::size_t off = 0;
    for (auto &r : refs_) {
        axpy(1.0f, in.subspan(off, r.grad.size()), r.grad);
        off += r.grad.size();
    }
}

void
ParamSet::scaleGrads(float s)
{
    for (auto &r : refs_)
        for (float &g : r.grad)
            g *= s;
}

float
ParamSet::clipGradNorm(float max_norm)
{
    double sq = 0.0;
    for (const auto &r : refs_)
        for (float g : r.grad)
            sq += double(g) * double(g);
    const float norm = static_cast<float>(std::sqrt(sq));
    if (norm > max_norm && norm > 0.0f)
        scaleGrads(max_norm / norm);
    return norm;
}

} // namespace isw::ml
