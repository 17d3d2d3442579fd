/**
 * @file
 * Sequential network container and the flat parameter view (ParamSet)
 * that distributed training serializes onto the wire.
 */

#ifndef ISW_ML_NETWORK_HH
#define ISW_ML_NETWORK_HH

#include <memory>
#include <vector>

#include "ml/layers.hh"

namespace isw::ml {

/** A stack of layers applied in order. */
class Network
{
  public:
    Network() = default;

    /** Append a layer; returns a raw handle for composition. */
    template <class L, class... Args>
    L *
    add(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L *raw = layer.get();
        layers_.push_back(std::move(layer));
        return raw;
    }

    /** Build an MLP: dims[0] -> dims[1] -> ... with @p Act between. */
    template <class Act>
    static Network
    mlp(const std::vector<std::size_t> &dims, sim::Rng &rng,
        const std::string &name = "mlp")
    {
        Network net;
        for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
            net.add<Linear>(dims[i], dims[i + 1], rng,
                            name + ".l" + std::to_string(i));
            if (i + 2 < dims.size())
                net.add<Act>();
        }
        return net;
    }

    Matrix forward(const Matrix &x);
    Matrix backward(const Matrix &dy);
    /** backward() without the input gradient, which the first layer
     *  then skips computing; parameter gradients are the same. */
    void backwardParams(const Matrix &dy);
    void collectParams(std::vector<ParamRef> &out);

    std::size_t numLayers() const { return layers_.size(); }

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

/**
 * A flat view over parameters collected from one or more networks.
 *
 * The order of registration defines the wire layout of the flattened
 * weight/gradient vectors, so every worker must build its ParamSet
 * identically (they do: agents are constructed from the same config).
 */
class ParamSet
{
  public:
    /** Register every parameter of @p net. */
    void addNetwork(Network &net) { net.collectParams(refs_); }

    /** Total scalar parameter count. */
    std::size_t count() const;

    /** Copy all parameter values into @p out (resized). */
    void copyValuesTo(Vec &out) const;

    /** Overwrite all parameters from @p in (size must match). */
    void setValues(std::span<const float> in);

    /** Copy all gradients into @p out (resized). */
    void copyGradsTo(Vec &out) const;

    /** Zero every gradient. */
    void zeroGrads();

    /** grads += @p in (flat layout; size must match). */
    void accumulateGrads(std::span<const float> in);

    /** Elementwise gradient scale (e.g. 1/batch). */
    void scaleGrads(float s);

    /** Global L2 gradient-norm clipping; returns pre-clip norm. */
    float clipGradNorm(float max_norm);

    const std::vector<ParamRef> &refs() const { return refs_; }

  private:
    std::vector<ParamRef> refs_;
};

} // namespace isw::ml

#endif // ISW_ML_NETWORK_HH
