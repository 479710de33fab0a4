/**
 * @file
 * The MemScale hardware performance-counter set (paper Section 3.1).
 *
 * All counters are cumulative; the OS policy samples them at profiling
 * and epoch boundaries and works with deltas.  A single system-wide
 * set suffices (the models use averages, not per-bank values), exactly
 * as the paper argues.
 */

#ifndef MEMSCALE_MEM_COUNTERS_HH
#define MEMSCALE_MEM_COUNTERS_HH

#include <cstdint>

#include "common/types.hh"

namespace memscale
{

class SectionIO;

struct McCounters
{
    /// @name Transactions-outstanding accumulators.
    /// @{
    /**
     * Bank Transactions Outstanding: incremented by the number of
     * already-outstanding requests to the same bank on each arrival.
     */
    std::uint64_t bto = 0;
    /** Bank Transaction Counter: one per arriving request. */
    std::uint64_t btc = 0;
    /**
     * Channel (bus) Transactions Outstanding: residual bus work, in
     * burst units, ahead of each request when its data is ready.
     * Fractional because a burst may be mid-flight.
     */
    double cto = 0.0;
    /** Channel Transactions Counter. */
    std::uint64_t ctc = 0;
    /// @}

    /// @name Row-buffer performance.
    /// @{
    std::uint64_t rbhc = 0;   ///< row-buffer hits
    std::uint64_t obmc = 0;   ///< open-row misses (extra precharge)
    std::uint64_t cbmc = 0;   ///< closed-bank misses
    std::uint64_t epdc = 0;   ///< powerdown exits
    /// @}

    /// @name Power-model counters (summed from the ranks when sampled).
    /// @{
    std::uint64_t pocc = 0;        ///< page open/close command pairs
    Tick rankTime = 0;             ///< summed rank integration time
    Tick rankPreTime = 0;          ///< summed all-banks-precharged time
    Tick rankPrePdTime = 0;        ///< ... with CKE low (PTCKEL)
    Tick rankActPdTime = 0;        ///< some bank open, CKE low (ATCKEL)
    /// @}

    /// @name Idle-ladder and consolidation counters.
    /// @{
    Tick rankSrTime = 0;           ///< summed self-refresh residency
    Tick rankSrSlowTime = 0;       ///< ... in slow-clock self-refresh
    Tick rankDeepPdTime = 0;       ///< ... in deep powerdown
    std::uint64_t pdDemotions = 0; ///< ladder walk-down transitions
    std::uint64_t migrations = 0;  ///< page-frame swaps performed
    /// @}

    /// @name Traffic statistics.
    /// @{
    std::uint64_t reads = 0;       ///< completed reads
    std::uint64_t writes = 0;      ///< completed writebacks
    Tick busBusyTime = 0;          ///< summed burst time, all channels
    Tick readLatencyTotal = 0;     ///< sum of read (done - arrival)
    std::uint64_t freqTransitions = 0;
    Tick relockStallTime = 0;
    /// @}

    McCounters operator-(const McCounters &o) const;

    /** Checkpoint/restore: every counter, in file order. */
    void transfer(SectionIO &io);

    /** Average queue work seen at a bank, including self (>= 1). */
    double xiBank() const;
    /** Average bus work seen at the bus stage, including self (>= 1). */
    double xiBus() const;
    /** Row-buffer hit fraction among serviced requests. */
    double rowHitFraction() const;
};

} // namespace memscale

#endif // MEMSCALE_MEM_COUNTERS_HH
