/**
 * @file
 * Asynchronous parameter-server training (paper Figure 3), the Async
 * PS baseline: the server owns the authoritative weights; each worker
 * independently pulls the latest weights, computes a gradient, and
 * pushes it; the server applies each arriving gradient immediately.
 * Iterations are counted at the server (weight updates). A staleness
 * bound S is enforced on the worker side, matching the S given to
 * asynchronous iSwitch for a fair comparison (§6.2).
 */

#ifndef ISW_DIST_PS_ASYNC_HH
#define ISW_DIST_PS_ASYNC_HH

#include <atomic>
#include <deque>

#include "dist/strategy.hh"

namespace isw::dist {

/** Async PS job (Async PS rows of Tables 3/5). */
class AsyncPsJob : public JobBase
{
  public:
    explicit AsyncPsJob(const JobConfig &cfg);

  protected:
    void start() override;

  private:
    void pullWeights(WorkerCtx &w);
    void lgc(WorkerCtx &w);
    /** Send (and guard) @p w's gradient as its push number @p seq. */
    void pushGradient(WorkerCtx &w, std::uint64_t seq);
    void onPsPacket(const net::PacketPtr &pkt);
    void onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt);

    /** Server version as seen by a worker's staleness check: the live
     *  counter on a one-domain engine, the barrier-published snapshot
     *  on a multi-domain one (no cross-domain race on the server's
     *  live counter). */
    std::uint64_t stalenessVersion() const;
    void onShardBarrier() override;

    WireFormat fmt_;
    /** Weight-pull replies stay raw fp32 regardless of cfg_.precision:
     *  quantizing installed weights would compound error every pull,
     *  and the paper's ablation quantizes only the gradient plane. */
    WireFormat wfmt_;
    ml::Vec srv_weights_;
    std::unique_ptr<ml::Optimizer> srv_opt_;
    std::uint64_t srv_version_ = 0;
    /** Snapshot of srv_version_ taken at every sharded window barrier
     *  (the engine's only globally-ordered point); workers read their
     *  staleness bound from here so runs are deterministic across
     *  shard_threads. Unused on a one-domain engine. */
    std::atomic<std::uint64_t> srv_version_pub_{0};
    std::vector<VectorAssembler> srv_rx_; ///< per-worker gradient streams
    std::vector<std::uint64_t> installed_version_;
    sim::Rng ps_rng_;

    // --- loss-recovery state (inert when recovery is off) ---
    /** Per-worker push sequence stamped into gradient transfer ids so
     *  a late retransmission cannot pollute a newer push. */
    std::vector<std::uint64_t> push_seq_;
    /** Snapshot of the last pushed gradient (pending_grad mutates). */
    std::vector<ml::Vec> last_push_;
    /** Highest push seq the server has applied, per worker. */
    std::vector<std::uint64_t> srv_applied_;
    /** Push seq the server's assembler is currently collecting. */
    std::vector<std::uint64_t> srv_asm_seq_;
    /** Weight version the worker's assembler is collecting (kNoVer =
     *  idle: adopt whatever reply arrives next). */
    std::vector<std::uint64_t> rx_ver_;
    /** uint8_t, not bool: vector<bool> packs bits, so two workers in
     *  different sim domains would race on the same word. */
    std::vector<std::uint8_t> pull_outstanding_;
    std::deque<RetxTimer> push_retx_;
    std::deque<RetxTimer> pull_retx_;
};

} // namespace isw::dist

#endif // ISW_DIST_PS_ASYNC_HH
