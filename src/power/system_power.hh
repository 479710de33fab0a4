/**
 * @file
 * Full-system energy accounting: DRAM categories + PLL/register + MC +
 * rest-of-system, integrated over intervals of constant frequency.
 */

#ifndef MEMSCALE_POWER_SYSTEM_POWER_HH
#define MEMSCALE_POWER_SYSTEM_POWER_HH

#include <vector>

#include "common/types.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "power/dram_power.hh"
#include "power/params.hh"

namespace memscale
{

class SectionIO;

/** System-wide energy split (the categories of Figs. 2 and 10). */
struct EnergyBreakdown
{
    Joules background = 0;
    Joules actPre = 0;
    Joules readWrite = 0;
    Joules termination = 0;
    Joules refresh = 0;
    Joules pllReg = 0;   ///< DIMM PLL + register devices
    Joules mc = 0;       ///< memory controller
    /**
     * CPU cores, tracked explicitly only under the coordinated-DVFS
     * extension (zero otherwise; CPU power then sits inside rest).
     */
    Joules cpu = 0;
    Joules rest = 0;     ///< everything outside the memory subsystem

    /** DRAM-device energy (what Decoupled DIMMs attacks). */
    Joules
    dram() const
    {
        return background + actPre + readWrite + termination + refresh;
    }

    /** DIMM energy: DRAM devices + on-DIMM PLL/register. */
    Joules dimm() const { return dram() + pllReg; }

    /** Memory subsystem: DIMMs + memory controller. */
    Joules memorySubsystem() const { return dimm() + mc; }

    Joules total() const { return memorySubsystem() + cpu + rest; }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o);
    EnergyBreakdown operator-(const EnergyBreakdown &o) const;

    /** Checkpoint/restore (bit-exact double round-trip). */
    void transfer(SectionIO &io);
};

/**
 * Activity of the memory system over one constant-frequency interval,
 * produced by the memory controller's sampling interface.
 */
struct IntervalActivity
{
    Tick dt = 0;                       ///< interval length
    std::uint32_t busMHz = 800;        ///< channel frequency in effect
    /**
     * DRAM device frequency; differs from busMHz only under Decoupled
     * DIMMs.  0 means "same as busMHz".
     */
    std::uint32_t deviceBusMHz = 0;
    std::uint32_t ranksPerChannel = 4;
    std::uint32_t numDimms = 8;
    std::vector<RankActivity> ranks;   ///< per-rank deltas, channel-major
    std::vector<Tick> channelBurst;    ///< per-channel total burst time
    /**
     * Per-channel bus frequencies (per-channel DVFS extension); empty
     * means every channel runs at busMHz.
     */
    std::vector<std::uint32_t> channelMHz;

    /** Checkpoint/restore (the harness's open-interval baseline). */
    void transfer(SectionIO &io);
};

/**
 * Integrates IntervalActivity windows into a cumulative
 * EnergyBreakdown.  Rest-of-system power is a fixed wattage set by
 * the harness calibration (Section 4.1: DIMMs = 40% of server power
 * at the baseline).
 */
class SystemEnergyIntegrator
{
  public:
    SystemEnergyIntegrator(const PowerParams &pp, Watts rest_watts)
        : pp_(pp), restW_(rest_watts)
    {}

    /** Add one constant-frequency interval. */
    void addInterval(const IntervalActivity &ia);

    /** Add explicitly-modelled CPU energy (coordinated DVFS). */
    void addCpuEnergy(Joules j) { total_.cpu += j; }

    const EnergyBreakdown &energy() const { return total_; }
    Tick elapsed() const { return elapsed_; }

    /** Average power over everything integrated so far. */
    Watts averagePower() const;
    /** Average memory-subsystem power so far. */
    Watts averageMemoryPower() const;
    /** Average DIMM (DRAM + PLL/reg) power so far. */
    Watts averageDimmPower() const;

    const PowerParams &params() const { return pp_; }

    /** Checkpoint/restore (accumulated energy + elapsed time;
     * params and rest watts come from configuration). */
    void transfer(SectionIO &io);

  private:
    PowerParams pp_;
    Watts restW_;
    EnergyBreakdown total_;
    Tick elapsed_ = 0;
};

} // namespace memscale

#endif // MEMSCALE_POWER_SYSTEM_POWER_HH
