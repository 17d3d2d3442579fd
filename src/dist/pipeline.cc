#include "dist/pipeline.hh"

#include <algorithm>

#include "net/packet_pool.hh"

namespace isw::dist {

void
PrePostProcessor::encodeSeg(std::span<const float> logical,
                            net::ChunkPayload &chunk, int forced_qexp)
{
    const std::size_t n = logical.size();
    chunk.prec = precision_;
    chunk.qexp = 0;
    switch (precision_) {
      case net::Precision::kFp16: {
        const std::size_t words = (n + 1) / 2;
        chunk.values = net::PacketPool::local().acquireFloats(words);
        chunk.values.resize(words);
        ml::packHalfWords(logical.data(), n, chunk.values.data());
        return;
      }
      case net::Precision::kInt32: {
        const int e = forced_qexp == kAutoQexp
                          ? ml::blockExponent(logical.data(), n, 1, &stats_)
                          : forced_qexp;
        chunk.qexp = static_cast<std::int8_t>(e);
        chunk.values = net::PacketPool::local().acquireFloats(n);
        chunk.values.resize(n);
        ml::encodeBlockInt32(logical.data(), n, e, chunk.values.data(),
                             &stats_);
        return;
      }
      case net::Precision::kFp32:
        break;
    }
    chunk.values = net::PacketPool::local().acquireFloats(n);
    chunk.values.assign(logical.begin(), logical.end());
}

void
decodeSeg(net::Precision precision, const net::ChunkPayload &chunk,
          std::span<float> out)
{
    const std::size_t words = chunk.values.size();
    switch (precision) {
      case net::Precision::kFp16:
        ml::unpackHalfWords(chunk.values.data(),
                            std::min(out.size(), words * 2), out.data());
        return;
      case net::Precision::kInt32:
        ml::decodeBlockInt32(chunk.values.data(), std::min(out.size(), words),
                             chunk.qexp, out.data());
        return;
      case net::Precision::kFp32:
        break;
    }
    std::copy_n(chunk.values.begin(), std::min(out.size(), words),
                out.begin());
}

std::unique_ptr<PrePostProcessor>
makePrePostProcessor(net::Precision precision)
{
    return std::make_unique<PrePostProcessor>(precision);
}

} // namespace isw::dist
