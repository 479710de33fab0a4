/**
 * @file
 * Online DDR3 protocol checker.
 *
 * Subscribes to the channel command stream (check/command_observer)
 * and validates every inter-command timing constraint the simulator
 * claims to honor — tRCD, tRP, tRAS, tRRD, tFAW, refresh busy
 * windows, powerdown exit latencies, and frequency re-lock quiescence
 * — including across MemScale frequency transitions, where the
 * parameters in effect at each command's issue tick are used.
 *
 * Violations are recorded with full tick/channel/rank/bank provenance;
 * under strict mode (MEMSCALE_STRICT=1 in the environment or an
 * explicit constructor flag) the first violation terminates the run
 * via fatal().
 *
 * Known model simplifications the checker deliberately does NOT flag:
 * refresh issuing while rows are latched open (the simulator models
 * refresh as a bank-availability window, and the open-page ablation
 * keeps rows open across refreshes), and the tWTR/tCCD column-command
 * spacings (subsumed by data-bus serialization at burst granularity).
 */

#ifndef MEMSCALE_CHECK_PROTOCOL_CHECKER_HH
#define MEMSCALE_CHECK_PROTOCOL_CHECKER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/command_observer.hh"

namespace memscale
{

class SectionIO;

/** One recorded constraint violation with provenance. */
struct ProtocolViolation
{
    std::string rule;      ///< e.g. "tRCD", "refresh-window"
    Tick at = 0;           ///< offending command's issue tick
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = AllBanks;
    DramCmd cmd = DramCmd::Act;
    std::string detail;    ///< human-readable constraint arithmetic

    /** "tRCD violation at tick N (ch C rank R bank B cmd X): ..." */
    std::string str() const;
};

class ProtocolChecker : public CommandObserver
{
  public:
    /**
     * @param strict abort (fatal()) on the first violation.  Defaults
     *        to the environment's strictness (strictEnv()).
     */
    explicit ProtocolChecker(bool strict = strictEnv());

    /**
     * Validate one command.  All mutable state is per-channel
     * (ev.channel selects the slot).
     */
    void onCommand(const DramCmdEvent &ev) override;
    void onTimingChange(std::uint32_t channel, Tick effective,
                        const TimingParams &tp) override;

    /** Total violations recorded (strict mode never returns > 0). */
    std::uint64_t violations() const;

    /**
     * First few violations per channel, merged across channels in
     * (channel, record order) and capped at MaxSamples total.
     */
    const std::vector<ProtocolViolation> &samples() const;

    /** Commands validated so far (all channels). */
    std::uint64_t commandsChecked() const;

    /** Frequency re-lock windows observed (all channels). */
    std::uint64_t relocksSeen() const;

    bool strict() const { return strict_; }

    /** True when the MEMSCALE_STRICT env var is 1/on/true/yes. */
    static bool strictEnv();

    /** Violation samples kept before further ones are only counted. */
    static constexpr std::size_t MaxSamples = 32;

    /** Checkpoint/restore.  Everything except strictness (a property
     * of the resumed process, not of the simulated state) round-trips,
     * so post-resume commands are validated against the exact
     * timing/refresh/powerdown history the original run saw. */
    void transfer(SectionIO &io);

  private:
    struct BankState
    {
        bool open = false;
        bool actSeen = false;      ///< lastAct is valid
        bool preSeen = false;      ///< lastPreDone is valid
        std::uint64_t row = 0;
        Tick lastAct = 0;
        Tick lastPreDone = 0;
        Tick lastCmd = 0;          ///< per-bank monotonicity watchdog
        bool cmdSeen = false;
    };

    struct RankState
    {
        /** Recent ACT issue ticks, ascending (pruned past tFAW+tRRD). */
        std::vector<Tick> acts;
        /** Refresh busy windows [start, end), ascending, pruned. */
        std::vector<std::pair<Tick, Tick>> refreshes;
        std::vector<BankState> banks;
        /** Open CKE-low window start, or MaxTick when powered up. */
        Tick pdEnter = MaxTick;
        /**
         * Deepest idle-ladder rung announced for the open CKE-low
         * window (mirrors RankIdleState; 0 while powered up).  A
         * re-announce must be strictly deeper (a demotion), and the
         * eventual exit must pay this rung's latency.
         */
        std::uint8_t pdState = 0;
        /**
         * The open CKE-low window began inside a re-lock quiescence
         * (the channel force-parks awake ranks there); its exit at
         * the window edge is exempt from the exit-latency rule, since
         * the re-lock stall itself covers the wake.
         */
        bool pdParked = false;
        /** Exit-ready tick of the last powerdown exit. */
        Tick pdReady = 0;
        Tick lastRefreshStart = 0;
        bool refreshSeen = false;
        bool selfRefreshSinceRefresh = false;
    };

    struct ChannelState
    {
        /** (effective tick, params), ascending by effective tick. */
        std::vector<std::pair<Tick, TimingParams>> timings;
        /** Re-lock quiescence windows [start, end), ascending. */
        std::vector<std::pair<Tick, Tick>> relocks;
        /**
         * Furthest quiescence end announced so far.  Unlike the
         * bounded `relocks` list (which back-to-back re-locks can
         * evict from), this scalar never forgets, so the parked-rank
         * exemption stays sound under re-lock storms.
         */
        Tick relockEnd = 0;
        Tick lastBurstEnd = 0;
        std::vector<RankState> ranks;

        /**
         * @name Tallies.  Kept per channel because the `checker`
         * snapshot section stores them channel by channel.
         */
        /// @{
        std::uint64_t violations = 0;
        std::uint64_t commands = 0;
        std::uint64_t relockCount = 0;
        std::vector<ProtocolViolation> samples;  ///< first MaxSamples
        /// @}
    };

    ChannelState &chan(std::uint32_t ch);
    RankState &rank(ChannelState &cs, std::uint32_t rank);
    BankState &bank(RankState &rs, std::uint32_t bank);
    const TimingParams &paramsAt(const ChannelState &cs, Tick t) const;

    void record(ChannelState &cs, const DramCmdEvent &ev,
                const char *rule, std::string detail);

    /** Shared window checks for ACT/Read/Write (and PRE where noted). */
    void checkWindows(const DramCmdEvent &ev, ChannelState &cs,
                      RankState &rs, bool data_cmd);

    void checkAct(const DramCmdEvent &ev, ChannelState &cs);
    void checkPre(const DramCmdEvent &ev, ChannelState &cs);
    void checkColumn(const DramCmdEvent &ev, ChannelState &cs);
    void checkRefresh(const DramCmdEvent &ev, ChannelState &cs);

    bool strict_;
    std::vector<ChannelState> channels_;
    /** Lazily rebuilt merge of per-channel samples (samples()). */
    mutable std::vector<ProtocolViolation> mergedSamples_;
};

} // namespace memscale

#endif // MEMSCALE_CHECK_PROTOCOL_CHECKER_HH
