/**
 * @file
 * Uniform-sampling experience replay for off-policy algorithms
 * (DQN, DDPG).
 */

#ifndef ISW_RL_REPLAY_BUFFER_HH
#define ISW_RL_REPLAY_BUFFER_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "ml/tensor.hh"
#include "sim/random.hh"

namespace isw::rl {

/** One stored transition. The action is a float vector; discrete
 *  algorithms store the index in action[0]. */
struct Transition
{
    ml::Vec state;
    ml::Vec action;
    float reward = 0.0f;
    ml::Vec next_state;
    bool done = false;
};

/**
 * Fixed-capacity ring buffer with uniform random sampling. Storage
 * grows one slot per push until it reaches the capacity and never past
 * it, so an agent that stores a few thousand transitions pays for
 * those, not for the whole capacity. Growing a deque neither copies
 * stored transitions nor moves them, so pointers from sample() never
 * dangle. Once full, each push overwrites the oldest slot: slot i
 * always holds the newest transition pushed at a position congruent
 * to i modulo the capacity.
 */
class ReplayBuffer
{
  public:
    explicit ReplayBuffer(std::size_t capacity);

    void push(Transition t);

    std::size_t size() const { return buf_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return buf_.empty(); }

    /** Sample @p n transitions (with replacement) into @p out. */
    void sample(std::size_t n, sim::Rng &rng,
                std::vector<const Transition *> &out) const;

    /** Slot @p i, for i < size(). */
    const Transition &at(std::size_t i) const { return buf_.at(i); }

  private:
    std::deque<Transition> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;
};

} // namespace isw::rl

#endif // ISW_RL_REPLAY_BUFFER_HH
