/**
 * @file
 * Per-rank DRAM state: CKE/background-state time integration (the
 * source of the PTC/PTCKEL/ATCKEL/POCC counters and the Micron power
 * model inputs), activate-window constraints (tRRD/tFAW), and refresh
 * bookkeeping.
 *
 * The rank integrates time-in-state between explicit, monotonically
 * non-decreasing update timestamps.  Bank opens (ACT latched) and
 * closes (precharge done) are recorded with openAt()/closeAt(), mostly
 * ahead of time: the channel plans a request's whole command sequence
 * at once and records each transition at its future tick instead of
 * scheduling an event for it.  Every sync applies the recorded
 * transitions at or before its timestamp in tick order, integrating
 * piecewise between them, so time-in-state and the ACT/PRE count come
 * out exactly as if each transition had been its own event
 * (DESIGN.md §6, "Event-coalescing contract").
 */

#ifndef MEMSCALE_DRAM_RANK_HH
#define MEMSCALE_DRAM_RANK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace memscale
{

class SectionIO;
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

    /** Checkpoint/restore: every field, in file order. */
    void transfer(SectionIO &io);

    /** Fraction of the window with all banks precharged (counter PTC). */
    double preFraction() const;
};

class Rank
{
  public:
    /**
     * Capacity of the deferred-transition buffer.  The channel settles
     * a rank whenever it plans a request there, which leaves at most
     * three transitions pending per bank (DESIGN.md §6), so this
     * covers ranks of up to 21 banks.
     */
    static constexpr std::uint32_t maxPendingTransitions = 64;

    Rank() = default;

    /** @name State-change notifications (timestamps must not regress). */
    /// @{
    /**
     * Bank transitions.  openAt records a row activation that latches
     * at `at` (one ACT/PRE pair toward POCC); closeAt records a
     * precharge that completes at `at`.  `at` may lie in the future
     * but not before the last sync; the transition takes effect in the
     * first sync at or after `at`.
     */
    void openAt(Tick at) { defer(at, true); }
    void closeAt(Tick at) { defer(at, false); }

    /**
     * Apply every deferred transition at or before `now` and
     * integrate up to it.  Call before reading openBanks().
     */
    void settle(Tick now) { sync(now); }

    /**
     * Move to an explicit rung of the idle ladder.  Entering any
     * non-Up state requires all banks precharged; leaving a non-Up
     * state counts toward EPDC.  A same-state call is a no-op.
     */
    void setIdleState(Tick at, RankIdleState s);

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
     * time-in-state values and the ACT/PRE count read as of the last
     * sync.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    RankIdleState idleState() const { return idle_; }
    bool powerdown() const { return idle_ != RankIdleState::Up; }
    /** In any internally-refreshing state (SR or deeper). */
    bool selfRefreshing() const
    {
        return memscale::selfRefreshing(idle_);
    }
    /** Open banks as of the last sync (see settle()). */
    std::uint32_t openBanks() const { return openBanks_; }

    /** Deferred closes not yet applied. */
    std::uint32_t pendingCloses() const;

    /** Tick the rank's accounting has integrated up to. */
    Tick lastUpdate() const { return lastUpdate_; }

    /** Open banks once every deferred transition has applied. */
    std::uint32_t openBanksAfterPending() const;

    /** Ticks of the deferred opens not yet applied, in order. */
    std::vector<Tick> pendingOpens() const;

    /** Tick of the latest deferred close, if any is pending. */
    std::optional<Tick> latestPendingClose() const;

    /**
     * Checkpoint/restore.  Raw state transfer: never sync()s, so the
     * time integration resumes exactly where it left off.  A restored
     * deferred-transition buffer the live simulator could not have
     * produced is fatal.
     */
    void transfer(SectionIO &io);

  private:
    /** One deferred bank open or close. */
    struct Transition
    {
        Tick at = 0;
        bool open = false;
    };

    void defer(Tick at, bool open);
    /** Apply deferred transitions at or before `now`, then integrate. */
    void sync(Tick now);
    /** Attribute [lastUpdate_, to) to the current state. */
    void integrate(Tick to);

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

    /**
     * Deferred transitions sorted ascending by tick; equal ticks keep
     * recording order (an open-miss close before its activate).
     */
    std::array<Transition, maxPendingTransitions> pending_ = {};
    std::uint32_t numPending_ = 0;
};

/*
 * The members below run once or more per request (the channel settles
 * and plans against a rank on every access, and the burst completion
 * notes its burst), so they are inline; the calls cost 2.3% of a
 * paper-scale run (DESIGN.md §6, "Per-request hot path").
 */

inline void
Rank::defer(Tick at, bool open)
{
    if (at < lastUpdate_)
        panic("Rank: deferred transition at %llu precedes the last "
              "update at %llu",
              static_cast<unsigned long long>(at),
              static_cast<unsigned long long>(lastUpdate_));
    if (numPending_ == pending_.size())
        panic("Rank: deferred-transition buffer full (%zu entries)",
              pending_.size());
    // Transitions arrive nearly in tick order: one insertion step
    // from the back, after any entry at the same tick.
    std::uint32_t i = numPending_++;
    for (; i > 0 && pending_[i - 1].at > at; --i)
        pending_[i] = pending_[i - 1];
    pending_[i] = {at, open};
}

inline void
Rank::sync(Tick now)
{
    if (now < lastUpdate_)
        panic("Rank accounting timestamp regressed (%llu < %llu)",
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(lastUpdate_));
    std::uint32_t n = 0;
    for (; n < numPending_ && pending_[n].at <= now; ++n) {
        const Transition &t = pending_[n];
        integrate(t.at);
        if (t.open) {
            ++openBanks_;
            ++activity_.actPreCount;
        } else {
            if (openBanks_ == 0)
                panic("Rank: deferred close with no open banks");
            --openBanks_;
        }
    }
    if (n > 0) {
        std::copy(pending_.begin() + n, pending_.begin() + numPending_,
                  pending_.begin());
        numPending_ -= n;
    }
    integrate(now);
}

inline void
Rank::integrate(Tick to)
{
    Tick dt = to - lastUpdate_;
    lastUpdate_ = to;
    if (dt == 0)
        return;
    activity_.totalTime += dt;
    if (openBanks_ == 0) {
        switch (idle_) {
          case RankIdleState::Up:
            activity_.preStandbyTime += dt;
            break;
          case RankIdleState::FastPd:
            activity_.prePowerdownTime += dt;
            break;
          case RankIdleState::SlowPd:
            activity_.prePowerdownTime += dt;
            activity_.slowPowerdownTime += dt;
            break;
          case RankIdleState::SelfRefresh:
            activity_.prePowerdownTime += dt;
            activity_.selfRefreshTime += dt;
            break;
          case RankIdleState::SrSlowClock:
            activity_.prePowerdownTime += dt;
            activity_.srSlowClockTime += dt;
            break;
          case RankIdleState::DeepPd:
            activity_.prePowerdownTime += dt;
            activity_.deepPowerdownTime += dt;
            break;
        }
    } else {
        if (idle_ != RankIdleState::Up)
            activity_.actPowerdownTime += dt;
        else
            activity_.actStandbyTime += dt;
    }
}

inline void
Rank::noteBurst(bool is_write, Tick duration)
{
    if (is_write) {
        ++activity_.writeBursts;
        activity_.writeBurstTime += duration;
    } else {
        ++activity_.readBursts;
        activity_.readBurstTime += duration;
    }
}

inline Tick
Rank::earliestAct(Tick t, const TimingParams &tp) const
{
    Tick earliest = t;
    if (numRecentActs_ > 0) {
        // tRRD from the latest recorded ACT.
        Tick latest = recentActs_[numRecentActs_ - 1];
        if (latest + tp.tRRD > earliest)
            earliest = latest + tp.tRRD;
    }
    if (numRecentActs_ >= 4) {
        // tFAW: at most 4 ACTs within any tFAW window; the new ACT
        // must wait until the 4th-most-recent ACT ages out.
        Tick fourth = recentActs_[numRecentActs_ - 4];
        if (fourth + tp.tFAW > earliest)
            earliest = fourth + tp.tFAW;
    }
    return earliest;
}

inline void
Rank::recordAct(Tick when)
{
    // Keep the window sorted; planning may insert slightly out of
    // wall-clock order across banks, so place `when` with one
    // insertion step into the already sorted window.
    if (numRecentActs_ == recentActs_.size()) {
        std::copy(recentActs_.begin() + 1, recentActs_.end(),
                  recentActs_.begin());
        --numRecentActs_;
    }
    std::size_t i = numRecentActs_++;
    for (; i > 0 && recentActs_[i - 1] > when; --i)
        recentActs_[i] = recentActs_[i - 1];
    recentActs_[i] = when;
}

} // namespace memscale

#endif // MEMSCALE_DRAM_RANK_HH
