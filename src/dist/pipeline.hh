/**
 * @file
 * The endpoint wire codec (DESIGN.md §14), modeled on SwitchML's
 * client-side prepostprocessors (bypass_ppp /
 * cpu_exponent_quantizer_ppp): one per-chunk stage that converts a
 * segment's logical fp32 gradients into wire words before the send
 * (PrePostProcessor::encodeSeg) and back after the receive
 * (decodeSeg).
 *
 * Three wire precisions:
 *  - kFp32:  raw fp32 words;
 *  - kFp16:  two packed IEEE binary16 halves per wire word;
 *  - kInt32: block-shared-exponent fixed point (ml/quantize). The
 *            exponent is chosen per segment, or forced by the caller
 *            when a switch-side aggregation needs all contributors to
 *            agree (sendVector's seg_qexp span).
 *
 * Decoding needs no codec object: VectorAssembler decodes each landing
 * segment at its WireFormat's precision and the chunk's exponent, so
 * results from the switch take the same path as worker-to-worker
 * traffic.
 */

#ifndef ISW_DIST_PIPELINE_HH
#define ISW_DIST_PIPELINE_HH

#include <memory>
#include <span>

#include "ml/quantize.hh"
#include "net/packet.hh"

namespace isw::dist {

/** Sentinel for encodeSeg: pick the block exponent automatically. */
constexpr int kAutoQexp = 127;

/**
 * One endpoint's encoder for one wire precision. Stateful only in its
 * counters; give each simulated endpoint its own instance — sharded
 * runs execute workers on different domain threads.
 */
class PrePostProcessor
{
  public:
    explicit PrePostProcessor(
        net::Precision precision = net::Precision::kFp32)
        : precision_(precision)
    {}

    /** Wire precision this codec produces. */
    net::Precision precision() const { return precision_; }

    /**
     * Encode one segment's logical floats into @p chunk's wire words
     * and stamp chunk.prec / chunk.qexp. @p forced_qexp pins the
     * shared exponent for int32 blocks (kAutoQexp = choose from the
     * data); other precisions ignore it.
     */
    void encodeSeg(std::span<const float> logical, net::ChunkPayload &chunk,
                   int forced_qexp = kAutoQexp);

    /** Values and exponents the int32 encoder clamped (RunResult::
     *  extras); always 0 at the other precisions. */
    const ml::QuantStats &stats() const { return stats_; }

  private:
    net::Precision precision_;
    ml::QuantStats stats_;
};

/**
 * Decode @p chunk's wire words at @p precision (int32 at the chunk's
 * exponent) into the front of @p out: every logical float the chunk
 * carries, but no more than out.size().
 */
void decodeSeg(net::Precision precision, const net::ChunkPayload &chunk,
               std::span<float> out);

/** A heap-allocated codec for @p precision. */
std::unique_ptr<PrePostProcessor>
makePrePostProcessor(net::Precision precision);

} // namespace isw::dist

#endif // ISW_DIST_PIPELINE_HH
