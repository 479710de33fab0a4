/**
 * @file
 * The MemScale counter-driven performance model (paper Section 3.3,
 * Eqs. 2-9).
 *
 * From one profiling window the model derives frequency-invariant
 * inputs — queue-pressure factors xi_bank and xi_bus, the average
 * device access time E[T_device] (Eq. 6), and per-core alpha and
 * E[TPI_cpu] — and then predicts E[TPI_mem], CPI, and execution time
 * at *any* candidate frequency via
 *
 *     E[TPI_mem](f) = xi_bank * (T_MC(f) + T_device
 *                                + xi_bus * T_burst(f))      (Eq. 9)
 *     E[CPI_i](f)   = (TPI_cpu_i + alpha_i * TPI_mem(f)) * F_cpu.
 */

#ifndef MEMSCALE_MEMSCALE_PERF_MODEL_HH
#define MEMSCALE_MEMSCALE_PERF_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "mem/counters.hh"

namespace memscale
{

/** Per-core counter delta over a sampling window. */
struct CoreSample
{
    std::uint64_t tic = 0;   ///< instructions committed
    std::uint64_t tlm = 0;   ///< LLC misses
};

/** Everything the OS reads at a profiling/epoch boundary. */
struct ProfileData
{
    McCounters mc;                  ///< MC counter deltas
    std::vector<CoreSample> cores;  ///< per-core deltas
    Tick windowLen = 0;
    FreqIndex freqDuring = nominalFreqIndex;
};

class PerfModel
{
  public:
    explicit PerfModel(double cpu_ghz = 4.0) : cpuGHz_(cpu_ghz) {}

    /** Derive model inputs from a profiling window. */
    void calibrate(const ProfileData &profile);

    /** E[TPI_mem] at a grid frequency, in seconds (Eq. 9). */
    double tpiMem(FreqIndex f) const;

    /** Predicted CPI of a core at a grid frequency (Eq. 3). */
    double cpi(std::uint32_t core, FreqIndex f) const;

    /** Seconds per instruction of a core at a grid frequency. */
    double tpi(std::uint32_t core, FreqIndex f) const;

    /**
     * Predicted time for a core to repeat its profiled instruction
     * share at frequency f (used for energy-model time scaling).
     */
    double coreTime(std::uint32_t core, FreqIndex f) const;

    /** Mean of coreTime over all cores. */
    double meanTime(FreqIndex f) const;

    /** @name Calibrated inputs (exposed for tests/diagnostics). */
    /// @{
    double xiBank() const { return xiBank_; }
    double xiBus() const { return xiBus_; }
    double tDevice() const { return tDevice_; }
    std::size_t numCores() const { return cores_.size(); }
    double alpha(std::uint32_t core) const { return cores_[core].alpha; }
    double tpiCpu(std::uint32_t c) const { return cores_[c].tpiCpu; }
    std::uint64_t
    instructions(std::uint32_t c) const
    {
        return cores_[c].instr;
    }
    /// @}

  private:
    struct CoreCal
    {
        double alpha = 0.0;     ///< misses per instruction
        double tpiCpu = 0.0;    ///< seconds per instr on the CPU side
        std::uint64_t instr = 0;
        bool active = true;     ///< produced any work this window
    };

  public:
    /** Whether the core did any work during the profiled window. */
    bool
    active(std::uint32_t core) const
    {
        return cores_[core].active;
    }

  private:

    double cpuGHz_;
    double xiBank_ = 1.0;
    double xiBus_ = 1.0;
    double tDevice_ = 0.0;
    std::vector<CoreCal> cores_;
};

/**
 * Factor by which re-locking the bus to `f` stretches an epoch of
 * `epoch_sec` (1 when `f` is already `current`).  Policies fold it
 * into a candidate's predicted per-instruction time so short epochs
 * cannot overshoot the bound through transition overhead.
 */
inline double
switchStretch(FreqIndex f, FreqIndex current, double epoch_sec)
{
    if (f == current)
        return 1.0;
    return 1.0 + tickToSec(TimingParams::at(f).tRELOCK) / epoch_sec;
}

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_PERF_MODEL_HH
