/**
 * @file
 * PacketPool: recycling of Packet objects, their shared_ptr control
 * blocks, and chunk float buffers.
 *
 * The simulated datapath creates one heap `shared_ptr<const Packet>`
 * (object + control block) and one fresh `std::vector<float>` per
 * segment per hop — the dominant allocator traffic once the event
 * queue stopped allocating (DESIGN.md §9). The pool mirrors the
 * pre-allocated slot designs of SwitchML/NetReduce in software:
 *
 *  - `seal()` places a Packet into a recycled slot and attaches a
 *    deleter that, when the last reference drops, salvages the chunk's
 *    float buffer into the free list and returns the slot — objects
 *    stay constructed between uses, so capacity survives.
 *  - The shared_ptr control block is allocated through an allocator
 *    that draws on the pool's own free list of blocks, so the whole
 *    send → switch → deliver round trip is allocation-free in steady
 *    state.
 *  - `acquireFloats()` hands senders a recycled, cleared buffer whose
 *    capacity was grown by earlier rounds.
 *
 * Nothing is capped: a pool parks every frame, block and buffer handed
 * back to it, so it settles at the run's peak in flight and a round
 * past the first allocates nothing. That storage is scoped to the run
 * that grew it. A one-domain job installs a pool it owns for its run
 * (Scope), runSharedJobs one for its shared world, and the sharded
 * engine's domain hooks one per domain; each is freed with its owner.
 * A frame recycles into the calling thread's pool (local()) when its
 * last reference drops, which keeps every pool single-threaded even
 * when a frame crosses domains.
 *
 * Whether a seal hits a parked slot depends on where the run's pools
 * came from, so alloc/reuse counters are reported as wall-clock-class
 * `perf` metrics, never in the deterministic `extras` (see
 * harness/metrics.hh). `sealed` counts pure packet creations and IS
 * deterministic per job.
 */

#ifndef ISW_NET_PACKET_POOL_HH
#define ISW_NET_PACKET_POOL_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"

namespace isw::net {

class PacketPool
{
  public:
    /** Creation / recycling counters (monotone; snapshot and diff). */
    struct Stats
    {
        std::uint64_t sealed = 0;        ///< packets created via seal()
        std::uint64_t packet_allocs = 0; ///< slot misses (fresh Packet)
        std::uint64_t packet_reuses = 0; ///< slot hits (recycled Packet)
        std::uint64_t float_allocs = 0;  ///< acquireFloats() misses
        std::uint64_t float_reuses = 0;  ///< acquireFloats() hits
    };

    /** The calling thread's pool: the innermost Scope's, else a
     *  default thread-local one. */
    static PacketPool &local();

    /**
     * Makes @p pool the calling thread's local() for the Scope's
     * lifetime, then restores whatever was installed before. Scopes
     * nest. The sharded engine's domain hooks open one around each
     * domain's window slice, so every domain owns a private pool:
     * packets sealed and recycled inside a window — including packets
     * that crossed domains and die on the receiver's thread — touch
     * only that domain's free lists, keeping the pool single-threaded.
     */
    class Scope
    {
      public:
        explicit Scope(PacketPool &pool);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        PacketPool *prev_;
    };

    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;
    ~PacketPool();

    /** Pooled equivalent of make_shared<const Packet>(std::move(pkt)). */
    PacketPtr seal(Packet &&pkt);

    /**
     * A cleared float buffer with capacity for @p hint elements,
     * recycled from an earlier packet when available. A zero @p hint
     * (a segment past the end of a timing-only run's logical vector
     * carries no values) takes nothing from the free list and counts
     * as neither a hit nor a miss.
     */
    std::vector<float> acquireFloats(std::size_t hint);

    /** Return a buffer to the free list (capacity is kept). */
    void releaseFloats(std::vector<float> &&buf);

    Stats stats() const { return stats_; }

    /** Packets currently parked in the slot free list. */
    std::size_t idleSlots() const { return slots_.size(); }
    /** Float buffers currently parked in the free list. */
    std::size_t idleFloatBuffers() const { return float_bufs_.size(); }

    /** Drop all parked slots, blocks and buffers (tests). */
    void trim();

  private:
    friend struct PacketRecycler;

    /** Deleter target: salvage buffers, park the slot. */
    void recycle(Packet *p);

    /** A parked control block, or fresh storage of @p bytes. */
    void *takeBlock(std::size_t bytes);
    void parkBlock(void *block) { blocks_.push_back(block); }

    std::vector<Packet *> slots_;
    /** Control blocks of dead packets: they all share one node type,
     *  so any parked block fits the next seal. */
    std::vector<void *> blocks_;
    std::vector<std::vector<float>> float_bufs_;
    Stats stats_;
};

} // namespace isw::net

#endif // ISW_NET_PACKET_POOL_HH
