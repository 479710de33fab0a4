/**
 * @file
 * Slab allocator for MemRequests, mirroring the event kernel's pooled
 * slot design (sim/event_queue): requests live in chunked slabs with
 * stable addresses and are recycled through an intrusive free list
 * threaded over MemRequest::next, so the steady-state miss path never
 * touches the heap.  One pool per MemoryController; capacity grows to
 * the high-water mark of outstanding requests and stays there.
 */

#ifndef MEMSCALE_MEM_REQUEST_POOL_HH
#define MEMSCALE_MEM_REQUEST_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "mem/request.hh"

namespace memscale
{

class RequestPool
{
  public:
    /** Requests per slab chunk; chunks are never freed mid-run. */
    static constexpr std::size_t ChunkSize = 64;

    RequestPool() = default;
    RequestPool(const RequestPool &) = delete;
    RequestPool &operator=(const RequestPool &) = delete;

    /** Fetch a zeroed request (grows the slab only when exhausted). */
    MemRequest *
    alloc()
    {
        if (freeHead_ == nullptr)
            grow();
        MemRequest *r = freeHead_;
        freeHead_ = r->next;
        ++inUse_;
        reset(*r);
        return r;
    }

    /** Return a retired request to the free list. */
    void
    release(MemRequest *r)
    {
        r->client = nullptr;
        r->prev = nullptr;
        r->next = freeHead_;
        freeHead_ = r;
        --inUse_;
    }

    /** Requests currently out of the pool (queued or in flight). */
    std::size_t inUse() const { return inUse_; }

    /** Total slab capacity (high-water mark, rounded to ChunkSize). */
    std::size_t capacity() const { return chunks_.size() * ChunkSize; }

    /**
     * @name Checkpoint support.  A request's slab index is its stable
     * identity across save/restore: queues and pending events
     * serialize indices, and restoreLayout() rebuilds the exact
     * free-list order so post-resume allocations return the same
     * slots as the uninterrupted run.
     */
    /// @{
    std::size_t indexOf(const MemRequest *r) const { return r->poolIndex; }

    MemRequest *
    at(std::size_t idx)
    {
        if (idx >= capacity())
            panic("RequestPool: index %zu out of %zu", idx,
                  capacity());
        return &chunks_[idx / ChunkSize][idx % ChunkSize];
    }

    const MemRequest *
    at(std::size_t idx) const
    {
        if (idx >= capacity())
            panic("RequestPool: index %zu out of %zu", idx,
                  capacity());
        return &chunks_[idx / ChunkSize][idx % ChunkSize];
    }

    /** Free-list order, head first. */
    std::vector<std::size_t>
    freeListIndices() const
    {
        std::vector<std::size_t> out;
        for (const MemRequest *r = freeHead_; r != nullptr;
             r = r->next)
            out.push_back(indexOf(r));
        return out;
    }

    /** Grow to `cap` slots and impose the given free-list order. */
    void
    restoreLayout(std::size_t cap,
                  const std::vector<std::size_t> &free_order)
    {
        if (cap % ChunkSize != 0 || free_order.size() > cap)
            panic("RequestPool: bad restore layout (%zu slots, %zu "
                  "free)",
                  cap, free_order.size());
        while (capacity() < cap)
            grow();
        freeHead_ = nullptr;
        for (std::size_t i = free_order.size(); i-- > 0;) {
            MemRequest *r = at(free_order[i]);
            r->next = freeHead_;
            freeHead_ = r;
        }
        inUse_ = cap - free_order.size();
    }
    /// @}

  private:
    /**
     * Give `r` the value of MemRequest{}, field by field.  The
     * aggregate assignment compiles to a `rep stosq` over the whole
     * struct; these stores are cheaper on the per-request path, and
     * makeRequest's own writes make most of them dead.  poolIndex
     * is the one field left alone: grow() set it for good.  The size
     * check stops a new field from going unreset, and
     * test_request_pool compares the result with MemRequest{}.
     */
    static void
    reset(MemRequest &r)
    {
        static_assert(sizeof(MemRequest) == 128,
                      "MemRequest changed: reset the new field here, "
                      "then update this size");
        r.addr = 0;
        r.isWrite = false;
        r.core = 0;
        r.arrival = 0;
        r.loc.channel = 0;
        r.loc.rank = 0;
        r.loc.bank = 0;
        r.loc.row = 0;
        r.loc.column = 0;
        r.serviceStart = 0;
        r.dataReady = 0;
        r.burstStart = 0;
        r.burstEnd = 0;
        r.bankBurstExtra = 0;
        r.outcome = RowOutcome::ClosedMiss;
        r.sawPowerdownExit = false;
        r.client = nullptr;
        r.prev = nullptr;
        r.next = nullptr;
    }

    void
    grow()
    {
        const std::size_t base = capacity();
        chunks_.push_back(std::make_unique<MemRequest[]>(ChunkSize));
        MemRequest *chunk = chunks_.back().get();
        for (std::size_t i = ChunkSize; i-- > 0;) {
            chunk[i].poolIndex = static_cast<std::uint32_t>(base + i);
            chunk[i].next = freeHead_;
            freeHead_ = &chunk[i];
        }
    }

    std::vector<std::unique_ptr<MemRequest[]>> chunks_;
    MemRequest *freeHead_ = nullptr;
    std::size_t inUse_ = 0;
};

} // namespace memscale

#endif // MEMSCALE_MEM_REQUEST_POOL_HH
