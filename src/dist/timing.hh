/**
 * @file
 * Per-iteration compute timing model.
 *
 * The paper breaks each training iteration into the components of
 * Figure 4. Everything network-side (gradient aggregation) is produced
 * by the network simulator; the *local* components are simulated
 * durations calibrated from the paper's measurements (Table 4
 * per-iteration times x Figure 4 non-aggregation fractions), with
 * lognormal jitter. Local compute is strategy-invariant — the paper
 * replays the same trace across PS/AR/iSwitch — which keeps strategy
 * comparisons fair.
 */

#ifndef ISW_DIST_TIMING_HH
#define ISW_DIST_TIMING_HH

#include <array>
#include <cstddef>

#include "rl/agent.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace isw::dist {

/** The iteration components of paper Figure 4. */
enum class IterComponent : std::size_t {
    kAgentAction = 0,
    kEnvironReact,
    kBufferSampling,
    kMemoryAlloc,
    kForwardPass,
    kBackwardPass,
    kGpuCopy,
    kGradAggregation, ///< produced by the network simulation
    kWeightUpdate,
    kOthers,
    kCount,
};

constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(IterComponent::kCount);

/** Printable component name (matches the paper's legend). */
const char *componentName(IterComponent c);

/** True for components that belong to Local Gradient Computing. */
bool isLgcComponent(IterComponent c);

/** Calibrated mean durations of the local iteration components. */
struct ComputeProfile
{
    /** Mean duration per component; aggregation entry ignored. */
    std::array<sim::TimeNs, kNumComponents> mean{};
    /** Coefficient of variation of the lognormal jitter. */
    double jitter_cv = 0.03;

    /** Sum of the LGC components' means. */
    sim::TimeNs lgcMean() const;

    /** Draw a jittered duration for @p c. */
    sim::TimeNs sample(IterComponent c, sim::Rng &rng) const;
};

/**
 * Calibrated profile for each paper benchmark (see DESIGN.md §5.6 for
 * the derivation from Table 4 and Figure 4).
 */
ComputeProfile profileFor(rl::Algo algo);

} // namespace isw::dist

#endif // ISW_DIST_TIMING_HH
