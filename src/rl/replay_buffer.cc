#include "rl/replay_buffer.hh"

#include <stdexcept>

namespace isw::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity)
{
    if (capacity == 0)
        throw std::invalid_argument("ReplayBuffer: zero capacity");
}

void
ReplayBuffer::push(Transition t)
{
    // While filling, head_ == size(): the new slot is the next one.
    if (buf_.size() < capacity_)
        buf_.push_back(std::move(t));
    else
        buf_[head_] = std::move(t);
    head_ = (head_ + 1) % capacity_;
}

void
ReplayBuffer::sample(std::size_t n, sim::Rng &rng,
                     std::vector<const Transition *> &out) const
{
    if (empty())
        throw std::logic_error("ReplayBuffer::sample on empty buffer");
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(size()) - 1));
        out.push_back(&buf_[idx]);
    }
}

} // namespace isw::rl
