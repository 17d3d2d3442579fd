/**
 * @file
 * Sharded synchronous parameter server — an extension baseline.
 *
 * The paper identifies the PS's central link as the scalability
 * bottleneck (§2.3). The classic systems mitigation is sharding: K
 * server nodes each own 1/K of the parameter vector; workers scatter
 * their gradient slices to all shards, every shard sums its slice once
 * all N arrive, and broadcasts it back. This spreads the aggregation
 * load over K links at the cost of K x N messages per round — useful
 * context for how much of iSwitch's win survives against a stronger
 * server-side baseline (see `bench_ablation_sharded_ps`).
 */

#ifndef ISW_DIST_PS_SHARDED_HH
#define ISW_DIST_PS_SHARDED_HH

#include <deque>

#include "dist/strategy.hh"

namespace isw::dist {

/** Sync sharded-PS job (extension; not a paper strategy). */
class SyncShardedPsJob : public JobBase
{
  public:
    explicit SyncShardedPsJob(const JobConfig &cfg);

  protected:
    void start() override;

  private:
    /** Logical/wire extent of one shard's slice. */
    struct ShardSpec
    {
        std::uint64_t log_begin = 0;
        std::uint64_t log_end = 0;
        std::uint64_t wire_bytes = 0;
        WireFormat fmt;
    };

    /** Per-shard server state. */
    struct ShardState
    {
        std::vector<VectorAssembler> rx; ///< one per worker
        std::size_t received = 0;
        std::uint64_t round = 0; ///< round this shard is collecting
        ml::Vec sum;
        /** The shard's pipeline stage for result sends (per shard:
         *  sharded runs may execute shards on domain threads). */
        std::unique_ptr<PrePostProcessor> ppp;
    };

    void beginRound(WorkerCtx &w);
    void onShardPacket(std::size_t shard, const net::PacketPtr &pkt);
    void shardAggregate(std::size_t shard);
    void onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt);
    void onSlicesComplete(WorkerCtx &w);

    std::vector<ShardSpec> shards_;
    std::vector<ShardState> state_;
    /** Per-worker count of completed result slices this round. */
    std::vector<std::size_t> slices_done_;
    /** Per-worker per-shard result assemblers. */
    std::vector<std::vector<VectorAssembler>> worker_rx_;
    /** Per-worker reassembled aggregate. */
    std::vector<ml::Vec> agg_;
    /** Partitioned fabrics place each shard in its own domain, so
     *  each shard samples from its own fork and publishes its round's
     *  weight-update share here (single-writer per slot); workers take
     *  the max across shards when splitting the round's charge. */
    std::vector<sim::Rng> shard_rng_;
    std::vector<sim::TimeNs> shard_wu_;
    /** Loss-recovery timers, flattened worker * K + shard (deque:
     *  RetxTimer is address-pinned by its pending event). */
    std::deque<RetxTimer> grad_retx_;
    std::deque<RetxTimer> result_retx_;
};

} // namespace isw::dist

#endif // ISW_DIST_PS_SHARDED_HH
