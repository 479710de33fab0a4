/**
 * @file
 * Per-rank DRAM state: CKE/background-state time integration (the
 * source of the PTC/PTCKEL/ATCKEL/POCC counters and the Micron power
 * model inputs), activate-window constraints (tRRD/tFAW), and refresh
 * bookkeeping.
 *
 * The rank integrates time-in-state between explicit, monotonically
 * non-decreasing update timestamps supplied by the channel's
 * accounting events.
 */

#ifndef MEMSCALE_DRAM_RANK_HH
#define MEMSCALE_DRAM_RANK_HH

#include <array>
#include <cstdint>

#include <string>

#include "common/types.hh"
#include "dram/timing.hh"

namespace memscale
{

class SectionReader;
class SectionWriter;
class StatRegistry;

/**
 * Explicit rank idle-state ladder, ordered shallow to deep.  States at
 * SelfRefresh and beyond refresh internally: the external refresh
 * engine must not issue REF commands to a rank sitting there.
 */
enum class RankIdleState : std::uint8_t
{
    Up = 0,       ///< CKE high (standby; active or precharged)
    FastPd,       ///< fast-exit precharge powerdown (tXP exit)
    SlowPd,       ///< slow-exit precharge powerdown, DLL off (tXPDLL)
    SelfRefresh,  ///< self-refresh (tXS exit)
    SrSlowClock,  ///< self-refresh with slow internal clock (tXSDLL)
    DeepPd,       ///< deep powerdown, clock tree off (tXDP exit)
};

/** Human-readable name for diagnostics and checker messages. */
const char *rankIdleStateName(RankIdleState s);

/** States that refresh internally (no external REF allowed). */
inline bool
selfRefreshing(RankIdleState s)
{
    return s >= RankIdleState::SelfRefresh;
}

/** Datasheet exit latency of an idle state at the given frequency. */
Tick idleExitLatency(RankIdleState s, const TimingParams &tp);

/**
 * Accumulated activity of one rank over an integration window.
 * Differences of two snapshots describe the activity within an epoch;
 * the power model consumes exactly this struct.
 */
struct RankActivity
{
    Tick preStandbyTime = 0;   ///< all banks precharged, CKE high
    Tick prePowerdownTime = 0; ///< all banks precharged, CKE low
    Tick slowPowerdownTime = 0; ///< subset of prePowerdownTime, DLL off
    /**
     * Subset of prePowerdownTime spent in self-refresh (lowest-current
     * refreshing state; no external refresh needed, tXS exit).
     */
    Tick selfRefreshTime = 0;
    /** Subset of prePowerdownTime: self-refresh with slow clock. */
    Tick srSlowClockTime = 0;
    /** Subset of prePowerdownTime: deep powerdown. */
    Tick deepPowerdownTime = 0;
    Tick actStandbyTime = 0;   ///< >=1 bank open, CKE high
    Tick actPowerdownTime = 0; ///< >=1 bank open, CKE low
    Tick totalTime = 0;        ///< window length

    std::uint64_t actPreCount = 0;   ///< POCC: open/close command pairs
    std::uint64_t readBursts = 0;
    std::uint64_t writeBursts = 0;
    Tick readBurstTime = 0;
    Tick writeBurstTime = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t pdExits = 0;       ///< EPDC

    RankActivity operator-(const RankActivity &o) const;
    RankActivity &operator+=(const RankActivity &o);

    /** @name Checkpoint/restore */
    /// @{
    void saveState(SectionWriter &w) const;
    void restoreState(SectionReader &r);
    /// @}

    /** Fraction of the window with all banks precharged (counter PTC). */
    double preFraction() const;
    /** Fraction of the window in precharge powerdown (PTCKEL). */
    double prePowerdownFraction() const;
    /** Fraction of the window in active powerdown (ATCKEL). */
    double actPowerdownFraction() const;
};

class Rank
{
  public:
    Rank() = default;

    /** @name State-change notifications (timestamps must not regress). */
    /// @{
    void bankOpened(Tick at);
    void bankClosed(Tick at);

    /**
     * CKE transition.  Entering powerdown with slow_exit selects the
     * DLL-off (slow-exit) state; self_refresh selects self-refresh.
     * Exits count toward EPDC.  Thin wrapper over setIdleState() for
     * the pre-ladder call sites.
     */
    void setPowerdown(Tick at, bool low, bool slow_exit = false,
                      bool self_refresh = false);

    /**
     * Move to an explicit rung of the idle ladder.  Entering any
     * non-Up state requires all banks precharged; leaving a non-Up
     * state counts toward EPDC.  A same-state call is a no-op.
     */
    void setIdleState(Tick at, RankIdleState s);

    void noteActPre() { ++activity_.actPreCount; }
    void noteBurst(bool is_write, Tick duration);
    void noteRefresh() { ++activity_.refreshes; }
    /// @}

    /** @name Activate-window constraints. */
    /// @{
    /**
     * Earliest tick >= t at which a new ACT may issue given tRRD and
     * tFAW.  Does not record the ACT.
     */
    Tick earliestAct(Tick t, const TimingParams &tp) const;

    /** Record an ACT (possibly out of wall-clock order across banks). */
    void recordAct(Tick when);
    /// @}

    /** Flush integration up to `now` and return cumulative activity. */
    const RankActivity &sample(Tick now);

    /**
     * Publish this rank's cumulative activity counters under `prefix`
     * (e.g. "mc0.chan1.rank0").  Registers pointers only; the
     * time-in-state values read as of the last sample() flush.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    RankIdleState idleState() const { return idle_; }
    bool powerdown() const { return idle_ != RankIdleState::Up; }
    bool slowPowerdown() const { return idle_ == RankIdleState::SlowPd; }
    bool selfRefresh() const
    {
        return idle_ == RankIdleState::SelfRefresh;
    }
    /** In any internally-refreshing state (SR or deeper). */
    bool selfRefreshing() const
    {
        return memscale::selfRefreshing(idle_);
    }
    std::uint32_t openBanks() const { return openBanks_; }

    /** Reset all state (used between experiment runs). */
    void reset();

    /**
     * @name Checkpoint/restore.  Raw state transfer: never sync()s,
     * so the time integration resumes exactly where it left off.
     */
    /// @{
    void saveState(SectionWriter &w) const;
    void restoreState(SectionReader &r);
    /// @}

  private:
    void sync(Tick now);

    RankActivity activity_;
    Tick lastUpdate_ = 0;
    std::uint32_t openBanks_ = 0;
    RankIdleState idle_ = RankIdleState::Up;

    /**
     * Recent ACT issue times kept sorted ascending; enough history for
     * tFAW (4) plus slack for out-of-order planning inserts.
     */
    std::array<Tick, 8> recentActs_ = {};
    std::uint32_t numRecentActs_ = 0;
};

} // namespace memscale

#endif // MEMSCALE_DRAM_RANK_HH
