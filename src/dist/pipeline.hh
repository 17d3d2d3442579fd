/**
 * @file
 * Pluggable worker pre/post-processor pipeline (DESIGN.md §14),
 * modeled on SwitchML's client-side prepostprocessors (bypass_ppp /
 * cpu_exponent_quantizer_ppp): a per-chunk stage that converts a
 * segment's logical fp32 gradients into wire words before the send
 * and back after the receive.
 *
 * The pre-processing half lives here; the post-processing half is
 * performed by VectorAssembler as segments land (transport.hh), keyed
 * off WireFormat::precision and each chunk's own tag + exponent — so
 * receivers need no processor object and results decoded from the
 * switch take the same path as worker-to-worker traffic.
 *
 * Three processors:
 *  - BypassPpp: raw fp32 words, bit-identical to the legacy wire;
 *  - Fp16Ppp:   two packed IEEE binary16 halves per wire word;
 *  - Int32Ppp:  block-shared-exponent fixed point (ml/quantize). The
 *               exponent is chosen per segment, or forced by the
 *               caller when a switch-side aggregation needs all
 *               contributors to agree (sendVector's seg_qexp span).
 */

#ifndef ISW_DIST_PIPELINE_HH
#define ISW_DIST_PIPELINE_HH

#include <memory>
#include <span>

#include "dist/transport.hh"
#include "ml/quantize.hh"
#include "net/packet.hh"

namespace isw::dist {

/** Sentinel for encodeSeg: pick the block exponent automatically. */
constexpr int kAutoQexp = 127;

/** Deterministic per-processor counters (RunResult::extras). */
struct PipelineStats
{
    std::uint64_t value_clamps = 0; ///< values saturated by the codec
    std::uint64_t exp_clamps = 0;   ///< exponents clamped to wire range
};

/**
 * One worker's (or server's) pipeline stage. Stateful only in its
 * counters; give each simulated endpoint its own instance — sharded
 * runs execute workers on different domain threads.
 */
class PrePostProcessor
{
  public:
    virtual ~PrePostProcessor() = default;

    /** Wire precision this processor produces. */
    virtual net::Precision precision() const = 0;

    /**
     * Encode one segment's logical floats into @p chunk's wire words
     * and stamp chunk.prec / chunk.qexp. @p forced_qexp pins the
     * shared exponent for int32 blocks (kAutoQexp = choose from the
     * data); other precisions ignore it.
     */
    virtual void encodeSeg(std::span<const float> logical,
                           net::ChunkPayload &chunk,
                           int forced_qexp = kAutoQexp) = 0;

    const PipelineStats &stats() const { return stats_; }

  protected:
    PipelineStats stats_;
};

/** Raw fp32 words: byte-identical to the pre-pipeline wire. */
class BypassPpp final : public PrePostProcessor
{
  public:
    net::Precision precision() const override
    {
        return net::Precision::kFp32;
    }
    void encodeSeg(std::span<const float> logical, net::ChunkPayload &chunk,
                   int forced_qexp) override;
};

/** Two packed IEEE binary16 halves per 32-bit wire word. */
class Fp16Ppp final : public PrePostProcessor
{
  public:
    net::Precision precision() const override
    {
        return net::Precision::kFp16;
    }
    void encodeSeg(std::span<const float> logical, net::ChunkPayload &chunk,
                   int forced_qexp) override;
};

/**
 * Block-shared-exponent int32 (SwitchML-style exponent quantizer).
 * @p headroom is the number of worst-case contributions the switch
 * will sum into one slot (1 for endpoint-aggregated strategies, H
 * for switch-aggregated ones choosing exponents automatically).
 */
class Int32Ppp final : public PrePostProcessor
{
  public:
    explicit Int32Ppp(std::uint32_t headroom = 1) : headroom_(headroom) {}

    net::Precision precision() const override
    {
        return net::Precision::kInt32;
    }
    void encodeSeg(std::span<const float> logical, net::ChunkPayload &chunk,
                   int forced_qexp) override;

  private:
    std::uint32_t headroom_;
};

/**
 * Build the processor for @p precision (@p headroom as in Int32Ppp).
 */
std::unique_ptr<PrePostProcessor>
makePrePostProcessor(net::Precision precision, std::uint32_t headroom = 1);

} // namespace isw::dist

#endif // ISW_DIST_PIPELINE_HH
