/**
 * @file
 * Synthetic application profiles standing in for the paper's SPEC
 * 2000/2006 SimPoint traces (see DESIGN.md, substitution table).
 *
 * A profile is a sequence of phases; each phase fixes the LLC read
 * miss rate (MPKI), writeback rate (WPKI), non-memory CPI, and the
 * fraction of misses that stream sequentially (which determines
 * row-buffer locality potential).  Phase schedules reproduce
 * program-phase behaviour such as apsi's large mid-run transition
 * (paper Fig. 7).
 */

#ifndef MEMSCALE_WORKLOAD_APP_PROFILE_HH
#define MEMSCALE_WORKLOAD_APP_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace memscale
{

class SectionIO;

struct AppPhase
{
    double mpki = 1.0;       ///< LLC read misses per kilo-instruction
    double wpki = 0.0;       ///< LLC writebacks per kilo-instruction
    double baseCpi = 1.0;    ///< CPI of non-missing instructions
    double streamFrac = 0.5; ///< fraction of misses that stream
    /** Phase length in instructions; 0 = until the end of the run. */
    std::uint64_t instructions = 0;
};

struct AppProfile
{
    std::string name;
    std::vector<AppPhase> phases;
    /** Per-instance memory footprint. */
    std::uint64_t footprintBytes = 64ull << 20;
    /** Restart the phase schedule when it runs out. */
    bool loopPhases = true;

    /** Run-average MPKI over the first `horizon` instructions. */
    double averageMpki(std::uint64_t horizon) const;
    /** Run-average WPKI over the first `horizon` instructions. */
    double averageWpki(std::uint64_t horizon) const;

    /**
     * Snapshot fingerprint (SystemConfig::customApps): every field, the
     * phase schedule included, as `app.<field>`.
     */
    void fingerprint(SectionIO &io);
};

} // namespace memscale

#endif // MEMSCALE_WORKLOAD_APP_PROFILE_HH
