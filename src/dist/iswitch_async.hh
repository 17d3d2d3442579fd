/**
 * @file
 * Asynchronous iSwitch training — the paper's Algorithm 1 with the
 * three-stage pipeline of Figure 11:
 *
 *   - LGC thread: runs back-to-back, never blocking on aggregation;
 *     commits a gradient only if its staleness ts - tw <= S.
 *   - GA stage (in the switch): counts H gradient vectors per segment,
 *     sums, and broadcasts — contributions from different worker
 *     iterations may mix, which is inherent to the design.
 *   - LWU thread: applies each broadcast sum (ws -= lr * gsum / H) and
 *     advances the local weight version ts.
 *
 * Decentralized weight storage: every worker applies the identical
 * broadcast sums in the identical order, so weights stay agreed.
 */

#ifndef ISW_DIST_ISWITCH_ASYNC_HH
#define ISW_DIST_ISWITCH_ASYNC_HH

#include <atomic>
#include <deque>

#include "dist/strategy.hh"

namespace isw::dist {

/** Async iSwitch job (Async iSW rows of Tables 3/5). */
class AsyncIswitchJob : public JobBase
{
  public:
    /** On its own world, or on @p world's shared fabric. Async mode
     *  reuses segment indices every iteration with dedupe off, so a
     *  bounded slot quota must cover the whole tensor: quota <
     *  segments() throws std::invalid_argument. */
    explicit AsyncIswitchJob(const JobConfig &cfg,
                             const SharedWorld *world = nullptr);

  protected:
    void start() override;
    void collectExtras(RunResult &res) const override;

  private:
    void lgcLoop(WorkerCtx &w);
    void onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt);
    void drainLwu(WorkerCtx &w);
    /** (Re)arm @p w's stall watchdog iff it has outstanding results. */
    void rearmWatch(WorkerCtx &w);
    /** Stall recovery: FBcast + re-contribute each missing front seg.
     *  Returns the number of nudged segments (RetxTimer resend fn). */
    std::size_t nudge(WorkerCtx &w);

    WireFormat fmt_;
    std::uint32_t h_ = 0; ///< effective aggregation threshold
    std::vector<MultiRoundAssembler> rx_;
    /** uint8_t, not bool: vector<bool> packs bits, so two workers in
     *  different sim domains would race on the same word. */
    std::vector<std::uint8_t> lwu_busy_;
    /** Per-worker gradients committed (for send-side backpressure). */
    std::vector<std::uint64_t> sent_;
    /** Atomic: every worker's domain increments these; relaxed adds
     *  are commutative, so totals are thread-count-deterministic. */
    std::atomic<std::uint64_t> committed_{0}; ///< gradients sent (stats)
    std::atomic<std::uint64_t> skipped_{0}; ///< dropped as too stale
    /** Snapshot of the last committed gradient, for re-contribution
     *  (pending_grad mutates as the LGC pipeline runs ahead). */
    std::vector<ml::Vec> last_sent_;
    /** Per-worker stall watchdogs (deque: RetxTimer is pinned). */
    std::deque<RetxTimer> watch_;
    /**
     * Static per-segment exponents for the int32 datapath. Async mode
     * cannot speculate from a previous aggregate — cross-iteration
     * segment mixing means there is no common broadcast to derive the
     * next exponent from — so every round encodes at the fixed default
     * and order-independence is preserved (DESIGN.md §14). Empty
     * unless cfg_.precision == kInt32.
     */
    std::vector<std::int8_t> static_qexp_;

  public:
    std::uint64_t
    gradientsCommitted() const
    {
        return committed_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    gradientsSkipped() const
    {
        return skipped_.load(std::memory_order_relaxed);
    }
};

} // namespace isw::dist

#endif // ISW_DIST_ISWITCH_ASYNC_HH
