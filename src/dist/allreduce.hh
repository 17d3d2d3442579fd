/**
 * @file
 * Ring-AllReduce training (paper Figure 1b), the AR baseline: the
 * gradient vector is split into N chunks; over 2(N-1) steps each
 * worker sends one chunk to its ring successor (through the switch)
 * and folds/stores the chunk arriving from its predecessor
 * (scatter-reduce then all-gather). Bandwidth-optimal, but every step
 * costs network hops and per-message host overhead — which is why the
 * paper finds AR *slower* than PS for the tiny PPO/DDPG models.
 */

#ifndef ISW_DIST_ALLREDUCE_HH
#define ISW_DIST_ALLREDUCE_HH

#include <map>

#include "dist/strategy.hh"

namespace isw::dist {

/** Sync Ring-AllReduce job (AR rows of Tables 3/4). */
class SyncAllReduceJob : public JobBase
{
  public:
    explicit SyncAllReduceJob(const JobConfig &cfg);

  protected:
    void start() override;

  private:
    /** Logical/wire extent of one ring chunk. */
    struct ChunkSpec
    {
        std::uint64_t log_begin = 0;
        std::uint64_t log_end = 0;
        std::uint64_t wire_bytes = 0;
    };

    /** Per-worker ring state beyond the base WorkerCtx. */
    struct RingState
    {
        ml::Vec acc;               ///< working copy being reduced
        std::size_t step = 0;      ///< next step awaiting receive
        std::uint64_t round = 0;
        /** Buffered per-step chunk assemblers, keyed by transfer id. */
        std::map<std::uint64_t, VectorAssembler> inflight;
        bool processing = false;
        /** True between startRing and ringDone; chunks arriving while
         *  this worker is still computing are buffered, not applied. */
        bool active = false;
    };

    /**
     * Retransmission state for one in-flight ring transfer. The data
     * is a snapshot of the sent chunk: rs.acc keeps mutating as later
     * steps fold into it, so resends must not re-read it. Lives in a
     * std::map (node-based) because RetxTimer is address-pinned.
     */
    struct Outgoing
    {
        std::vector<float> data;
        WireFormat fmt;
        RetxTimer timer;
    };

    void beginRound(WorkerCtx &w);
    void startRing(WorkerCtx &w);
    void sendStep(WorkerCtx &w, std::size_t step);
    void onWorkerPacket(WorkerCtx &w, const net::PacketPtr &pkt);
    void tryAdvance(WorkerCtx &w);
    void ringDone(WorkerCtx &w);

    /** Chunk index worker @p i transmits at @p step. */
    std::size_t sendChunkAt(std::size_t i, std::size_t step) const;
    /** Chunk index worker @p i receives at @p step. */
    std::size_t recvChunkAt(std::size_t i, std::size_t step) const;

    /** Has @p rs already consumed transfer @p tid (an earlier round,
     *  or an earlier step of this one)? */
    static bool consumed(const RingState &rs, std::uint64_t tid);

    std::size_t totalSteps() const { return 2 * (workers_.size() - 1); }

    std::vector<ChunkSpec> chunks_;
    std::vector<RingState> ring_;
    /** Per-sender in-flight transfers, keyed by transfer id; entries
     *  exist only while recovery is enabled. */
    std::vector<std::map<std::uint64_t, Outgoing>> out_;
};

} // namespace isw::dist

#endif // ISW_DIST_ALLREDUCE_HH
