#include "net/packet_pool.hh"

#include <memory>
#include <utility>

namespace isw::net {

struct PacketRecycler
{
    void
    operator()(const Packet *p) const noexcept
    {
        PacketPool::local().recycle(const_cast<Packet *>(p));
    }

    static void *
    takeBlock(std::size_t bytes)
    {
        return PacketPool::local().takeBlock(bytes);
    }

    static void
    parkBlock(void *block)
    {
        PacketPool::local().parkBlock(block);
    }
};

namespace {

/**
 * Allocator of the shared_ptr control block. Only one node type is
 * ever instantiated (the counted-deleter node for <const Packet>), so
 * every block has the same size and any pool's parked block fits.
 */
template <class T>
struct CtrlBlockAlloc
{
    using value_type = T;

    CtrlBlockAlloc() = default;
    template <class U>
    CtrlBlockAlloc(const CtrlBlockAlloc<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n != 1)
            return static_cast<T *>(::operator new(n * sizeof(T)));
        return static_cast<T *>(PacketRecycler::takeBlock(sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n != 1) {
            ::operator delete(p);
            return;
        }
        PacketRecycler::parkBlock(p);
    }

    template <class U>
    bool
    operator==(const CtrlBlockAlloc<U> &) const noexcept
    {
        return true;
    }
};

thread_local PacketPool *tls_scoped_pool = nullptr;

} // namespace

PacketPool &
PacketPool::local()
{
    thread_local PacketPool pool;
    return tls_scoped_pool != nullptr ? *tls_scoped_pool : pool;
}

PacketPool::Scope::Scope(PacketPool &pool) : prev_(tls_scoped_pool)
{
    tls_scoped_pool = &pool;
}

PacketPool::Scope::~Scope()
{
    tls_scoped_pool = prev_;
}

PacketPool::~PacketPool()
{
    trim();
}

PacketPtr
PacketPool::seal(Packet &&pkt)
{
    Packet *slot;
    if (!slots_.empty()) {
        slot = slots_.back();
        slots_.pop_back();
        *slot = std::move(pkt);
        ++stats_.packet_reuses;
    } else {
        slot = new Packet(std::move(pkt));
        ++stats_.packet_allocs;
    }
    ++stats_.sealed;
    return PacketPtr(static_cast<const Packet *>(slot), PacketRecycler{},
                     CtrlBlockAlloc<const Packet>{});
}

void *
PacketPool::takeBlock(std::size_t bytes)
{
    if (blocks_.empty())
        return ::operator new(bytes);
    void *block = blocks_.back();
    blocks_.pop_back();
    return block;
}

std::vector<float>
PacketPool::acquireFloats(std::size_t hint)
{
    std::vector<float> buf;
    if (hint == 0)
        return buf; // a value-less frame: nothing to take or count
    if (!float_bufs_.empty()) {
        buf = std::move(float_bufs_.back());
        float_bufs_.pop_back();
        ++stats_.float_reuses;
    } else {
        ++stats_.float_allocs;
    }
    buf.clear();
    buf.reserve(hint);
    return buf;
}

void
PacketPool::releaseFloats(std::vector<float> &&buf)
{
    if (buf.capacity() == 0)
        return; // nothing worth parking
    float_bufs_.push_back(std::move(buf));
}

void
PacketPool::recycle(Packet *p)
{
    if (auto *chunk = std::get_if<ChunkPayload>(&p->payload))
        releaseFloats(std::move(chunk->values));
    slots_.push_back(p);
}

void
PacketPool::trim()
{
    for (Packet *p : slots_)
        delete p;
    slots_.clear();
    for (void *block : blocks_)
        ::operator delete(block);
    blocks_.clear();
    float_bufs_.clear();
}

} // namespace isw::net
