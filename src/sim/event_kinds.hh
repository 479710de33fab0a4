/**
 * @file
 * Stable identifiers for every kind of event the simulator schedules.
 *
 * Checkpointing cannot serialize an `EventCallback` closure, so each
 * schedule site tags its event with an EventKind plus up to three
 * integer operands (owner, a, b).  On resume, a registry of named
 * reconstructors — one per kind, owned by the component that scheduled
 * the original — rebuilds an equivalent closure from the tag.  The
 * enumerator values are part of the snapshot format: never renumber an
 * existing kind, only append.
 */

#ifndef MEMSCALE_SIM_EVENT_KINDS_HH
#define MEMSCALE_SIM_EVENT_KINDS_HH

#include <cstdint>

namespace memscale
{

enum EventKind : std::uint32_t
{
    EvNone = 0,            ///< untagged (not checkpointable)
    EvCoreIssueMiss = 1,   ///< Core compute-chunk end -> issue miss
    // 2 and 3 are unassigned: they named events that rank open/close
    // accounting (dram/rank.hh) no longer schedules.  Numbering stays
    // append-only, so a snapshot carrying either is rejected on
    // resume as an unknown kind.
    EvChanBurstDone = 4,   ///< data burst completes a request
    /**
     * Trailing precharge done, scheduled only under a powerdown mode.
     * Operand b = 1: the event records its close; b = 0: a decision
     * point whose close is already in the rank's buffer.
     */
    EvChanPreDone = 5,
    EvChanRelockEnter = 6, ///< frequency-relock stall begins
    EvChanRelockExit = 7,  ///< frequency-relock stall ends
    EvChanRefreshTick = 8, ///< periodic per-rank refresh arm
    EvChanRefreshDone = 9, ///< tRFC elapsed, refresh complete
    EvEpochEndProfile = 10, ///< profiling window closes
    EvEpochEndEpoch = 11,   ///< epoch closes, next one begins
    EvServeArrival = 12,    ///< open-loop front end: next request lands
    EvServeIssue = 13,      ///< serving worker compute segment ends
    // 14 is unassigned: it named the idle-ladder demotion timer, which
    // a channel's per-rank demotion plan replaced; a snapshot carrying
    // it is rejected on resume as an unknown kind.
    EvMemMigrate = 15,      ///< periodic hot-page consolidation pass
    /**
     * Stop events of the harness itself: advance()'s stop at the cut
     * tick and a serving run's stop at its horizon.  Never exported:
     * a resumed System re-arms its own from the config, so they must
     * not round-trip.
     */
    EvEphemeral = 0xffffffffu,
};

/** Human-readable kind name for diagnostics. */
inline const char *
eventKindName(std::uint32_t kind)
{
    switch (kind) {
      case EvNone: return "none";
      case EvCoreIssueMiss: return "core.issueMiss";
      case EvChanBurstDone: return "chan.burstDone";
      case EvChanPreDone: return "chan.preDone";
      case EvChanRelockEnter: return "chan.relockEnter";
      case EvChanRelockExit: return "chan.relockExit";
      case EvChanRefreshTick: return "chan.refreshTick";
      case EvChanRefreshDone: return "chan.refreshDone";
      case EvEpochEndProfile: return "epoch.endProfile";
      case EvEpochEndEpoch: return "epoch.endEpoch";
      case EvServeArrival: return "serve.arrival";
      case EvServeIssue: return "serve.issue";
      case EvMemMigrate: return "mem.migrateTick";
      case EvEphemeral: return "ephemeral";
      default: return "unknown";
    }
}

} // namespace memscale

#endif // MEMSCALE_SIM_EVENT_KINDS_HH
