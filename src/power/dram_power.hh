/**
 * @file
 * Micron-power-calculator-style DRAM energy model (paper ref [33]),
 * operating on RankActivity windows.
 *
 * The same model serves two callers: the "ground truth" system energy
 * integrator (fed with measured rank activity) and the MemScale
 * policy's energy predictor (fed with counter-derived estimates), so
 * policy decisions and accounting can never diverge on formula bugs.
 */

#ifndef MEMSCALE_POWER_DRAM_POWER_HH
#define MEMSCALE_POWER_DRAM_POWER_HH

#include "common/types.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "power/params.hh"

namespace memscale
{

/** Energy consumed by one rank over an activity window, by category. */
struct RankEnergy
{
    Joules background = 0;   ///< standby/powerdown currents
    Joules actPre = 0;       ///< activate + precharge operations
    Joules readWrite = 0;    ///< column access bursts
    Joules termination = 0;  ///< ODT on this rank's chips
    Joules refresh = 0;      ///< refresh bursts

    Joules
    total() const
    {
        return background + actPre + readWrite + termination + refresh;
    }

    RankEnergy &operator+=(const RankEnergy &o);
};

/**
 * Energy of one rank for an activity window at one operating point.
 *
 * @param act           activity delta for the window
 * @param tp            timing parameters in effect during the window
 * @param pp            power parameters
 * @param other_burst   time during the window that *other* ranks on
 *                      the same channel were bursting (drives ODT)
 */
RankEnergy rankEnergy(const RankActivity &act, const TimingParams &tp,
                      const PowerParams &pp, Tick other_burst);

} // namespace memscale

#endif // MEMSCALE_POWER_DRAM_POWER_HH
