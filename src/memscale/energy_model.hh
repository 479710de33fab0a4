/**
 * @file
 * The MemScale full-system energy model (paper Section 3.3, Eq. 10).
 *
 * For each candidate frequency the model predicts the time to repeat
 * the profiled work and the energy the whole system would consume
 * doing so, reusing the same Micron-style rank-energy formulas as the
 * ground-truth integrator (power/dram_power).  The System Energy
 * Ratio (SER) of a candidate is its predicted energy relative to the
 * nominal frequency; the policy picks the feasible minimum.
 */

#ifndef MEMSCALE_MEMSCALE_ENERGY_MODEL_HH
#define MEMSCALE_MEMSCALE_ENERGY_MODEL_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "mem/config.hh"
#include "memscale/perf_model.hh"
#include "power/params.hh"

namespace memscale
{

class SlackTracker;

/** Static context a policy needs to reason about energy. */
struct PolicyContext
{
    PowerParams power;
    MemConfig mem;
    Watts restWatts = 0.0;   ///< calibrated non-memory system power
    double gamma = 0.10;     ///< maximum allowed CPI degradation
    double cpuGHz = 4.0;
    Tick epochLen = msToTick(5.0);
    Tick profileLen = usToTick(300.0);
    /**
     * Serving-mode p99 latency target in microseconds (0 = none).
     * Only SLO-aware policies read it; the CPI-slack policies ignore
     * tail latency entirely.
     */
    double sloP99Us = 0.0;

    /**
     * Server power budget in Watts (0 = uncapped).  Only cap-aware
     * policies (fastcap) read it; under a fleet coordinator it is
     * re-assigned every coordination epoch.
     */
    Watts powerCapW = 0.0;
};

/** Prediction for one candidate frequency. */
struct EnergyPrediction
{
    double timeSec = 0.0;       ///< predicted time for profiled work
    Joules memory = 0.0;        ///< memory-subsystem energy
    Joules system = 0.0;        ///< memory + rest-of-system energy
};

class EnergyModel
{
  public:
    /**
     * Predict time/energy at a grid frequency for the work captured
     * in `profile`, with frequency-dependent performance supplied by
     * a calibrated PerfModel.
     *
     * @param time_override when > 0, evaluate the energy over this
     *        wall time instead of the model's own prediction (used by
     *        coordinated CPU+memory scaling, where CPU frequency also
     *        stretches the work).
     */
    static EnergyPrediction predict(const PerfModel &perf,
                                    const ProfileData &profile,
                                    const PolicyContext &ctx,
                                    FreqIndex f,
                                    double time_override = 0.0);

    /** SER relative to the nominal grid point (Eq. 10). */
    static double ser(const PerfModel &perf, const ProfileData &profile,
                      const PolicyContext &ctx, FreqIndex f,
                      bool memory_only = false);
};

/** CPU clock candidates in GHz, fastest first (CoScale, FastCap). */
inline constexpr std::array<double, 7> cpuGridGHz = {
    4.0, 3.667, 3.333, 3.0, 2.667, 2.333, 2.0,
};

/** Prediction for one (memory frequency, CPU clock) pair. */
struct GridPoint
{
    FreqIndex f = nominalFreqIndex;
    double g = 0.0;          ///< CPU clock, GHz
    double tMean = 0.0;      ///< mean predicted time of active cores
    Joules memJ = 0.0;       ///< memory-subsystem energy
    Joules totalJ = 0.0;     ///< memory + CPU + rest-of-system energy
};

/**
 * Coordinated CPU + memory DVFS prediction at every (f, g) pair,
 * memory frequency outer (fastest first) and cpuGridGHz inner.  The
 * profiling window ran at `current` and `current_ghz`, so the
 * calibrated CPU-side time is already stretched by nominal/current;
 * each active core's time per instruction at (f, g) is
 *
 *   (TPI_cpu_i * current_ghz / g + alpha_i * TPI_mem(f))
 *       * switchStretch(f, current)
 *
 * Energy is the memory model over the mean core time, V^2 f CPU
 * power at each core's busy share, idle (finished) cores' leakage,
 * and the rest-of-system draw.  With `slack`, a pair where some
 * active core misses its slack-adjusted target (against nominal
 * memory and CPU clocks) is left out.  A profile with no active core
 * yields no points.
 */
std::vector<GridPoint> walkCpuMemGrid(const PerfModel &perf,
                                      const ProfileData &profile,
                                      const PolicyContext &ctx,
                                      FreqIndex current,
                                      double current_ghz,
                                      const SlackTracker *slack =
                                          nullptr);

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_ENERGY_MODEL_HH
