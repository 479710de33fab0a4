/**
 * @file
 * Power-model parameters (paper Table 2 plus the MC/register/PLL model
 * of Section 4.1) and the frequency/voltage scaling laws of Section
 * 2.2.
 *
 * Scaling laws implemented exactly as the paper states:
 *  - DRAM background and register/PLL power scale linearly with bus
 *    frequency.
 *  - MC power scales with V^2 * f; the MC voltage tracks frequency
 *    linearly across 0.65-1.2 V over the MC frequency range.
 *  - Read/write and termination *power* is frequency-independent
 *    (energy per access grows as bursts stretch).
 *  - Activate/precharge energy per operation is frequency-independent
 *    (device-internal).
 */

#ifndef MEMSCALE_POWER_PARAMS_HH
#define MEMSCALE_POWER_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace memscale
{

class SectionIO;

struct PowerParams
{
    /// @name DDR3 device currents in amperes, per chip, at 800 MHz
    /// (Table 2).
    /// @{
    double vdd = 1.575;
    double iReadWrite = 0.250;   ///< row-buffer read/write burst
    double iActPre = 0.120;      ///< activate-precharge (IDD0-style)
    double iActStandby = 0.067;  ///< active standby (IDD3N)
    double iActPowerdown = 0.045;///< active powerdown (IDD3P)
    double iPreStandby = 0.070;  ///< precharge standby (IDD2N)
    double iPrePdFast = 0.045;   ///< precharge powerdown, fast exit
    /**
     * Precharge powerdown with DLL frozen (slow exit).  Table 2 lists a
     * single powerdown current; real devices draw less with the DLL
     * off (IDD2P0 vs IDD2P1), so Slow-PD uses this reduced value.
     */
    double iPrePdSlow = 0.025;
    /**
     * Self-refresh current (IDD6-style).  Deepest idle state: the
     * device refreshes itself, so no external refresh energy is paid
     * while resident, at the cost of a tXS (~tRFC) exit penalty.
     */
    double iSelfRefresh = 0.012;
    /**
     * Self-refresh with the slow internal clock (IDD6ET-style):
     * trading the tXSDLL exit for a lower standby draw.
     */
    double iSrSlowClock = 0.008;
    /**
     * Deep powerdown (clock tree off, array self-refreshing):
     * the floor of the ladder, behind the tXDP exit penalty.
     */
    double iDeepPowerdown = 0.004;
    double iRefresh = 0.240;     ///< refresh burst (IDD5-style)
    /// @}

    /// @name Termination (ODT) power in watts per chip.
    /// @{
    double termOtherRankW = 0.025;  ///< while another rank bursts
    double termSelfWriteW = 0.050;  ///< while this rank receives writes
    /// @}

    /// @name DIMM support devices (per DIMM, at 800 MHz).
    /// @{
    double pllW = 0.5;        ///< PLL: frequency-scaled, load-invariant
    double regPeakW = 0.5;    ///< register at full channel utilization
    /// @}

    /// @name Memory controller (one per system).
    /// @{
    double mcPeakW = 15.0;    ///< at nominal V/f, 100% utilization
    double mcVMin = 0.65;     ///< MC voltage at the slowest grid point
    double mcVMax = 1.20;     ///< MC voltage at the nominal grid point
    /// @}

    /**
     * Idle power of the MC and DIMM registers as a fraction of their
     * peak ("power proportionality" knob, Fig. 15).  Default 50%:
     * MC idles at 7.5 W, register at 0.25 W.
     */
    double proportionality = 0.5;

    /// @name CPU cores (CoScale-style coordinated DVFS extension).
    /// Only used when SystemConfig::modelCpuPower is enabled; the
    /// paper's own experiments keep CPU power inside the fixed
    /// rest-of-system draw.
    /// @{
    double cpuCorePeakW = 3.0;   ///< per core at nominal V/f, busy
    double cpuStaticFrac = 0.3;  ///< leakage share, V-scaled only
    double cpuVMin = 0.65;       ///< at the slowest CPU grid point
    double cpuVMax = 1.20;       ///< at nominal
    double cpuNominalGHz = 4.0;
    double cpuMinGHz = 2.0;
    /// @}

    /** CPU core voltage at a clock (linear across the DVFS range). */
    double cpuVoltage(double ghz) const;

    /**
     * Per-core CPU power at a clock and non-stalled utilization:
     * dynamic part scales with V^2 f and utilization; static part
     * with V only.
     */
    Watts cpuCorePower(double ghz, double utilization) const;

    std::uint32_t chipsPerRank = 9;   ///< x8 parts + ECC
    std::uint32_t nominalBusMHz = 800;
    std::uint32_t minBusMHz = 200;

    /** Linear frequency derating for background/PLL/register power. */
    double
    freqScale(std::uint32_t bus_mhz) const
    {
        return static_cast<double>(bus_mhz) /
               static_cast<double>(nominalBusMHz);
    }

    /** MC supply voltage at the given bus frequency (MC runs at 2x). */
    double mcVoltage(std::uint32_t bus_mhz) const;

    /**
     * MC power at the given frequency and utilization in [0,1],
     * applying proportionality and V^2 f scaling.
     */
    Watts mcPower(std::uint32_t bus_mhz, double utilization) const;

    /** Register power per DIMM at frequency/utilization. */
    Watts registerPower(std::uint32_t bus_mhz, double utilization) const;

    /** PLL power per DIMM at the given frequency. */
    Watts pllPower(std::uint32_t bus_mhz) const;

    /**
     * Snapshot fingerprint: every field, as `power.<field>`.  Energy is
     * integrated across a cut, so both halves must price it alike.
     */
    void fingerprint(SectionIO &io);
};

} // namespace memscale

#endif // MEMSCALE_POWER_PARAMS_HH
