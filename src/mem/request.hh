/**
 * @file
 * Memory request descriptor exchanged between cores, the memory
 * controller, and channels.
 *
 * Requests are pooled (mem/request_pool) and threaded through the
 * channel's intrusive queues (mem/req_queue) via the embedded
 * prev/next links, so the steady-state miss path performs no heap
 * allocation.  Completion is delivered through the typed MemClient
 * interface (mem/client) instead of a per-request std::function.
 */

#ifndef MEMSCALE_MEM_REQUEST_HH
#define MEMSCALE_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace memscale
{

class MemClient;

/** Physical location of a line within the memory system. */
struct DecodedAddr
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;     ///< within the channel
    std::uint32_t bank = 0;     ///< within the rank
    std::uint64_t row = 0;
    std::uint64_t column = 0;   ///< line within the row

    bool
    operator==(const DecodedAddr &o) const
    {
        return channel == o.channel && rank == o.rank &&
               bank == o.bank && row == o.row && column == o.column;
    }
};

/** How a request found its bank's row buffer (Eq. 6 categories). */
enum class RowOutcome : std::uint8_t
{
    Hit,        ///< row already open (RBHC)
    OpenMiss,   ///< different row open, extra precharge (OBMC)
    ClosedMiss, ///< bank precharged (CBMC)
};

struct MemRequest
{
    Addr addr = 0;
    bool isWrite = false;
    CoreId core = 0;
    Tick arrival = 0;           ///< tick the MC accepted the request
    DecodedAddr loc;

    /// @name Filled in by the channel scheduler.
    /// @{
    Tick serviceStart = 0;      ///< first DRAM command
    Tick dataReady = 0;         ///< column access complete at device
    Tick burstStart = 0;
    Tick burstEnd = 0;          ///< data fully transferred (completion)
    /** Extra bank occupancy beyond the channel burst (Decoupled). */
    Tick bankBurstExtra = 0;
    RowOutcome outcome = RowOutcome::ClosedMiss;
    bool sawPowerdownExit = false;
    /// @}

    /** Slab index in the owning RequestPool, set once when the pool
     *  grows; alloc() leaves it alone. */
    std::uint32_t poolIndex = 0;

    /** Completion sink (reads only); valid until the request retires. */
    MemClient *client = nullptr;

    /// @name Intrusive links: bank/write queue while queued, free list
    /// while pooled.  Owned by ReqQueue / RequestPool; never touch.
    /// @{
    MemRequest *prev = nullptr;
    MemRequest *next = nullptr;
    /// @}
};

} // namespace memscale

#endif // MEMSCALE_MEM_REQUEST_HH
