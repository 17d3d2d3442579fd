#include "dist/pipeline.hh"

#include "net/packet_pool.hh"

namespace isw::dist {

void
BypassPpp::encodeSeg(std::span<const float> logical,
                     net::ChunkPayload &chunk, int forced_qexp)
{
    (void)forced_qexp;
    chunk.prec = net::Precision::kFp32;
    chunk.qexp = 0;
    chunk.values = net::PacketPool::local().acquireFloats(logical.size());
    chunk.values.assign(logical.begin(), logical.end());
}

void
Fp16Ppp::encodeSeg(std::span<const float> logical, net::ChunkPayload &chunk,
                   int forced_qexp)
{
    (void)forced_qexp;
    chunk.prec = net::Precision::kFp16;
    chunk.qexp = 0;
    const std::size_t words = (logical.size() + 1) / 2;
    chunk.values = net::PacketPool::local().acquireFloats(words);
    chunk.values.resize(words);
    ml::packHalfWords(logical.data(), logical.size(), chunk.values.data());
}

void
Int32Ppp::encodeSeg(std::span<const float> logical, net::ChunkPayload &chunk,
                    int forced_qexp)
{
    ml::QuantStats qs;
    const int e = forced_qexp == kAutoQexp
                      ? ml::blockExponent(logical.data(), logical.size(),
                                          headroom_, &qs)
                      : forced_qexp;
    chunk.prec = net::Precision::kInt32;
    chunk.qexp = static_cast<std::int8_t>(e);
    chunk.values = net::PacketPool::local().acquireFloats(logical.size());
    chunk.values.resize(logical.size());
    ml::encodeBlockInt32(logical.data(), logical.size(), e,
                         chunk.values.data(), &qs);
    stats_.value_clamps += qs.value_clamps;
    stats_.exp_clamps += qs.exp_clamps;
}

std::unique_ptr<PrePostProcessor>
makePrePostProcessor(net::Precision precision, std::uint32_t headroom)
{
    switch (precision) {
      case net::Precision::kFp16:
        return std::make_unique<Fp16Ppp>();
      case net::Precision::kInt32:
        return std::make_unique<Int32Ppp>(headroom);
      case net::Precision::kFp32:
      default:
        return std::make_unique<BypassPpp>();
    }
}

} // namespace isw::dist
