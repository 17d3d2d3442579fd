/**
 * @file
 * Synchronous parameter-server training (paper Figure 1a), the PS
 * baseline, served by K shards (JobConfig::ps_shards, default 1).
 *
 * Workers scatter their gradient to the shards, each of which owns
 * 1/K of the parameter vector. A shard waits for *complete* slices
 * from every worker before summing (conventional aggregation, Figure
 * 8a), performs its share of the weight update, and unicasts the
 * summed slice back to each worker. At K = 1 this is the paper's
 * central server, whose single link is the bottleneck the paper
 * measures (§2.3). K > 1 is the classic systems mitigation: K links
 * drain the aggregate in parallel at the cost of K x N messages per
 * round (`bench_ablation_sharded_ps` sweeps K).
 *
 * Logically the server returns the aggregated gradient and workers run
 * identical local optimizer replicas; this is mathematically the same
 * as shipping updated weights (same bytes on the wire) and keeps the
 * three synchronous strategies bit-comparable.
 */

#ifndef ISW_DIST_PS_SYNC_HH
#define ISW_DIST_PS_SYNC_HH

#include <deque>

#include "dist/strategy.hh"

namespace isw::dist {

/** Sync PS job (PS rows of Tables 3/4). */
class SyncPsJob : public JobBase
{
  public:
    explicit SyncPsJob(const JobConfig &cfg);

  protected:
    void start() override;

  private:
    /** One server shard: its slice of the vector and its state. */
    struct Shard
    {
        std::uint64_t log_begin = 0; ///< logical extent of the slice
        std::uint64_t log_end = 0;
        WireFormat fmt;
        std::vector<VectorAssembler> rx; ///< one per worker
        std::size_t received = 0;
        std::uint64_t round = 0; ///< round this shard is collecting
        ml::Vec sum;
        /** The shard's codec for result sends (per shard:
         *  partitioned fabrics run shards on domain threads). */
        PrePostProcessor ppp;
        /** Each shard samples its own rng fork and publishes its
         *  round's weight-update share in `wu` (single writer); workers
         *  take the max across shards when splitting the round. */
        sim::Rng rng;
        sim::TimeNs wu = 0;
    };

    /** A worker's view of the round's results, one slice per shard. */
    struct Inbox
    {
        std::vector<VectorAssembler> slices;
        std::size_t done = 0; ///< completed slices this round
        ml::Vec agg;          ///< the stitched aggregate
    };

    /** The part of @p w's gradient that shard @p sh sums. */
    static std::span<const float>
    workerSlice(const WorkerCtx &w, const Shard &sh)
    {
        return {w.pending_grad.data() + sh.log_begin,
                sh.log_end - sh.log_begin};
    }

    void beginRound(WorkerCtx &w);
    /** Send (and guard) @p w's round-@p round slice to @p shard. */
    void sendGradSlice(WorkerCtx &w, std::size_t shard, std::uint64_t round);
    void onShardPacket(std::size_t shard, const net::PacketPtr &pkt);
    void shardAggregate(std::size_t shard);
    /** Send (and guard) @p shard's round-@p round sum to @p w. */
    void sendResultSlice(std::size_t shard, WorkerCtx &w,
                         std::uint64_t round);
    void onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt);
    void onSlicesComplete(WorkerCtx &w);

    std::vector<Shard> shards_;
    std::vector<Inbox> inbox_; ///< per worker
    /** Loss-recovery timers, flattened worker * K + shard (deque:
     *  RetxTimer is address-pinned by its pending event). */
    std::deque<RetxTimer> grad_retx_;
    std::deque<RetxTimer> result_retx_;
};

} // namespace isw::dist

#endif // ISW_DIST_PS_SYNC_HH
