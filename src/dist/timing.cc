#include "dist/timing.hh"

#include <stdexcept>

namespace isw::dist {

const char *
componentName(IterComponent c)
{
    switch (c) {
      case IterComponent::kAgentAction: return "Agent Action";
      case IterComponent::kEnvironReact: return "Environ React";
      case IterComponent::kBufferSampling: return "Buffer Sampling";
      case IterComponent::kMemoryAlloc: return "Memory Alloc";
      case IterComponent::kForwardPass: return "Forward Pass";
      case IterComponent::kBackwardPass: return "Backward Pass";
      case IterComponent::kGpuCopy: return "GPU Copy";
      case IterComponent::kGradAggregation: return "Grad Aggregation";
      case IterComponent::kWeightUpdate: return "Weight Update";
      case IterComponent::kOthers: return "Others";
      case IterComponent::kCount: break;
    }
    return "?";
}

bool
isLgcComponent(IterComponent c)
{
    switch (c) {
      case IterComponent::kAgentAction:
      case IterComponent::kEnvironReact:
      case IterComponent::kBufferSampling:
      case IterComponent::kMemoryAlloc:
      case IterComponent::kForwardPass:
      case IterComponent::kBackwardPass:
      case IterComponent::kGpuCopy:
        return true;
      default:
        return false;
    }
}

sim::TimeNs
ComputeProfile::lgcMean() const
{
    sim::TimeNs total = 0;
    for (std::size_t i = 0; i < kNumComponents; ++i)
        if (isLgcComponent(static_cast<IterComponent>(i)))
            total += mean[i];
    return total;
}

sim::TimeNs
ComputeProfile::sample(IterComponent c, sim::Rng &rng) const
{
    const auto m = mean[static_cast<std::size_t>(c)];
    if (m == 0)
        return 0;
    return static_cast<sim::TimeNs>(
        rng.lognormalMeanCv(static_cast<double>(m), jitter_cv));
}

namespace {

using sim::fromMillis;

ComputeProfile
make(double aa, double er, double bs, double ma, double fw, double bw,
     double gc, double wu, double oth)
{
    ComputeProfile p;
    auto set = [&p](IterComponent c, double ms) {
        p.mean[static_cast<std::size_t>(c)] = fromMillis(ms);
    };
    set(IterComponent::kAgentAction, aa);
    set(IterComponent::kEnvironReact, er);
    set(IterComponent::kBufferSampling, bs);
    set(IterComponent::kMemoryAlloc, ma);
    set(IterComponent::kForwardPass, fw);
    set(IterComponent::kBackwardPass, bw);
    set(IterComponent::kGpuCopy, gc);
    set(IterComponent::kWeightUpdate, wu);
    set(IterComponent::kOthers, oth);
    return p;
}

} // namespace

ComputeProfile
profileFor(rl::Algo algo)
{
    // Derivation: Table 4 gives the PS per-iteration time; Figure 4
    // gives the gradient-aggregation fraction. The remainder is split
    // across local components according to each algorithm's character
    // (replay-heavy DQN/DDPG sample buffers; on-policy A2C/PPO spend
    // relatively more in the environment; MuJoCo-style physics is
    // pricier than Atari emulation per step).
    switch (algo) {
      case rl::Algo::kDqn: // 81.6 ms/iter, 83.2% aggregation
        return make(1.8, 2.2, 2.6, 0.7, 1.9, 2.6, 0.6, 1.0, 0.3);
      case rl::Algo::kA2c: // 51.7 ms/iter, ~75% aggregation
        return make(2.4, 3.1, 0.2, 0.8, 2.2, 2.6, 0.4, 0.9, 0.3);
      case rl::Algo::kPpo: // 17.6 ms/iter, ~50% aggregation
        return make(1.6, 3.2, 0.1, 0.4, 1.3, 1.6, 0.2, 0.25, 0.15);
      case rl::Algo::kDdpg: // 38.7 ms/iter, ~55% aggregation
        return make(2.5, 4.5, 2.0, 0.8, 2.7, 3.6, 0.4, 0.6, 0.3);
    }
    throw std::logic_error("profileFor: unknown algorithm");
}

} // namespace isw::dist
