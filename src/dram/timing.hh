/**
 * @file
 * DDR3 timing parameters (paper Table 2) and their frequency scaling.
 *
 * MemScale scales the bus/DIMM/device *interface* frequency and the
 * memory-controller frequency (2x bus).  Device-internal array timings
 * (tRCD, tRP, tCL, tRAS, ...) are fixed in wall-clock time: their cycle
 * counts grow as frequency drops.  Only the data burst (tBURST, 4 bus
 * cycles) and the MC processing latency (5 MC cycles) scale with
 * frequency (paper Section 2.2).
 */

#ifndef MEMSCALE_DRAM_TIMING_HH
#define MEMSCALE_DRAM_TIMING_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace memscale
{

class SectionIO;

/**
 * The ten bus frequencies evaluated in the paper, fastest first.
 * The MC runs at exactly double the bus frequency; DIMM clocks lock
 * to the bus.
 */
inline constexpr std::array<std::uint32_t, 10> busFreqGridMHz = {
    800, 733, 667, 600, 533, 467, 400, 333, 267, 200,
};

/** Index into busFreqGridMHz; 0 is the fastest (nominal) frequency. */
using FreqIndex = std::uint32_t;

inline constexpr FreqIndex nominalFreqIndex = 0;
inline constexpr FreqIndex numFreqPoints =
    static_cast<FreqIndex>(busFreqGridMHz.size());

/**
 * Complete set of DDR3 timing parameters at one operating frequency,
 * in picosecond Ticks.
 */
struct TimingParams
{
    std::uint32_t busMHz;   ///< bus/DIMM/device interface frequency
    Tick tCK;               ///< bus clock period
    Tick tCKMC;             ///< memory-controller clock period (bus/2)

    /// @name Frequency-scaled components
    /// @{
    Tick tBURST;   ///< 64B line transfer: 4 bus cycles (DDR, 8 beats)
    Tick tMC;      ///< MC request processing: 5 MC cycles
    /// @}

    /// @name Device-internal, wall-clock-fixed components
    /// @{
    Tick tRCD;     ///< activate to column command (15 ns)
    Tick tRP;      ///< precharge (15 ns)
    Tick tCL;      ///< column access strobe latency (15 ns)
    Tick tRAS;     ///< activate to precharge min (28 cyc @800 = 35 ns)
    Tick tRTP;     ///< read to precharge (5 cyc @800 = 6.25 ns)
    Tick tRRD;     ///< activate-activate same rank (4 cyc @800 = 5 ns)
    Tick tFAW;     ///< four-activate window (20 cyc @800 = 25 ns)
    Tick tWR;      ///< write recovery before precharge (15 ns)
    Tick tWTR;     ///< write-to-read turnaround (7.5 ns)
    Tick tXP;      ///< fast-exit powerdown wakeup (6 ns)
    Tick tXPDLL;   ///< slow-exit powerdown wakeup (24 ns)
    Tick tRFC;     ///< refresh cycle time, 1 Gb device (110 ns)
    Tick tXS;      ///< self-refresh exit to first command (tRFC+10 ns)
    Tick tREFI;    ///< average refresh interval (64 ms / 8192 rows)
    Tick tXSDLL;   ///< slow-clock self-refresh exit: DLL re-lock
                   ///< (512 tCK) + 10 ns settle
    Tick tXDP;     ///< deep-powerdown exit: DLL re-lock + a full
                   ///< refresh cycle to restore array state
    /// @}

    /**
     * Frequency re-lock penalty when switching operating points:
     * 512 memory cycles (tDLLK) plus 28 ns of PLL settling (paper
     * Section 4.1), entered via fast-exit precharge powerdown.
     */
    Tick tRELOCK;

    /** Row-cycle time: minimum activate-to-activate gap, same bank. */
    constexpr Tick tRC() const { return tRAS + tRP; }

    /** Parameters for a grid point. */
    static const TimingParams &at(FreqIndex idx);

    /** Parameters for an arbitrary bus frequency (off-grid allowed). */
    static TimingParams forBusMHz(std::uint32_t mhz);

    /** Checkpoint/restore (field-wise, bit-exact). */
    void transfer(SectionIO &io);
};

/** Closest grid index whose frequency is <= mhz (or slowest). */
FreqIndex freqIndexForMHz(std::uint32_t mhz);

} // namespace memscale

#endif // MEMSCALE_DRAM_TIMING_HH
