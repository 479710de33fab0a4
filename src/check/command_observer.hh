/**
 * @file
 * Instrumentation point for the DRAM command stream.
 *
 * The channel plans a request's full command sequence ahead of time
 * (event-driven at request granularity), so commands are *announced*
 * at planning time with their absolute issue ticks rather than
 * replayed tick-by-tick.  Consumers therefore see, per bank, a stream
 * that is monotone in tick, while cross-bank interleavings may arrive
 * out of tick order; the ProtocolChecker is written against exactly
 * this contract.
 *
 * This header is intentionally free of dependencies beyond dram/timing
 * so that mem/ can include it without linking against the checker
 * library: an unset observer costs one untaken branch per command.
 */

#ifndef MEMSCALE_CHECK_COMMAND_OBSERVER_HH
#define MEMSCALE_CHECK_COMMAND_OBSERVER_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace memscale
{

/** DDR3 command classes announced to observers. */
enum class DramCmd : std::uint8_t
{
    Act,            ///< row activate
    Pre,            ///< precharge (single bank)
    Read,           ///< column read (CAS)
    Write,          ///< column write (CAS-W)
    Refresh,        ///< rank-wide auto-refresh (tRFC busy window)
    PowerdownEnter, ///< CKE low (precharge/active powerdown or SR)
    PowerdownExit,  ///< CKE high; doneAt = first legal command tick
    Relock,         ///< frequency re-lock window (no commands inside)
};

/** Sentinel bank index for rank-wide commands (Refresh, CKE, Relock). */
inline constexpr std::uint32_t AllBanks = ~std::uint32_t(0);

/**
 * One announced command with full provenance.  `at` is the issue tick;
 * `doneAt` carries the command-specific completion tick (precharge
 * done, refresh end, powerdown-exit ready, relock end); column
 * commands also carry their data-bus burst window.
 */
struct DramCmdEvent
{
    DramCmd cmd = DramCmd::Act;
    Tick at = 0;
    Tick doneAt = 0;
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = AllBanks;
    std::uint64_t row = 0;

    /// @name Column-command burst window (Read/Write only).
    /// @{
    Tick burstStart = 0;
    Tick burstEnd = 0;
    /// @}

    /**
     * PowerdownEnter detail: exact rung of the idle ladder entered
     * (mirrors `RankIdleState`; 0 = Up is never announced).  A deeper
     * re-announce while already entered is a demotion.
     */
    std::uint8_t pdState = 0;
};

class CommandObserver
{
  public:
    virtual ~CommandObserver() = default;

    /** A command was planned/issued. */
    virtual void onCommand(const DramCmdEvent &ev) = 0;

    /**
     * Timing parameters for `channel` change for commands issuing at
     * or after `effective`.  Called once at attach time with the
     * initial parameters (effective = 0).
     */
    virtual void onTimingChange(std::uint32_t channel, Tick effective,
                                const TimingParams &tp) = 0;
};

} // namespace memscale

#endif // MEMSCALE_CHECK_COMMAND_OBSERVER_HH
