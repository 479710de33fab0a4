/**
 * @file
 * One memory channel: per-bank FIFO queues, a writeback queue with
 * half-full drain threshold, closed-page row management, DDR3 command
 * timing, rank powerdown, refresh, and frequency re-locking.
 *
 * The scheduler is event-driven at request granularity: when a bank
 * picks up a request, its entire command sequence (optional powerdown
 * exit, precharge, activate, column access, burst, precharge) is
 * planned against resource-availability timestamps.  This mirrors the
 * queueing model of paper Fig. 4: banks are servers; the bus is a
 * zero-depth server; a bank stays blocked until its burst drains
 * (transfer blocking).
 *
 * Only decisions get events.  A request schedules its burst
 * completion, plus its trailing precharge when a powerdown mode is
 * active (that event may power the rank down).  The rank open/close
 * transitions in between are recorded in the rank (Rank::openAt,
 * Rank::closeAt) at their planned ticks and applied when the rank
 * next syncs; readers of Rank::openBanks() settle the rank first.
 */

#ifndef MEMSCALE_MEM_CHANNEL_HH
#define MEMSCALE_MEM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "check/command_observer.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "mem/config.hh"
#include "mem/counters.hh"
#include "mem/req_queue.hh"
#include "mem/request.hh"
#include "mem/request_pool.hh"
#include "sim/event_queue.hh"

namespace memscale
{

class SectionIO;
class StatRegistry;

class Channel
{
  public:
    /**
     * @param eq   simulation event queue
     * @param cfg  memory organization
     * @param pool request pool (shared across the controller's
     *             channels; must outlive the channel)
     * @param tp   initial timing parameters
     */
    Channel(EventQueue &eq, const MemConfig &cfg, RequestPool &pool,
            const TimingParams &tp);

    ~Channel();

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /**
     * Accept a request.  The channel takes ownership and recycles the
     * request into the pool after completion.  Reads notify
     * req->client first.
     */
    void access(MemRequest *req);

    /**
     * Quiesce and re-lock to new timing parameters.  All in-flight
     * commands complete, ranks drop to fast-exit precharge powerdown
     * for the re-lock window, and no command issues before the
     * returned tick.
     */
    Tick applyFrequency(const TimingParams &tp);

    void setPowerdownMode(PowerdownMode mode);

    /**
     * Decoupled-DIMM mode: DRAM devices run at device_mhz while the
     * channel keeps its own rate; 0 disables.
     */
    void setDecoupled(std::uint32_t device_mhz);

    /**
     * Bandwidth throttling (related work, paper Section 5): cap data
     * bus utilization to the given fraction by enforcing a minimum
     * spacing between bursts.  <= 0 or >= 1 disables.
     */
    void setThrottle(double max_utilization);

    /**
     * Subscribe an observer to this channel's DRAM command stream
     * (check/command_observer).  The observer immediately learns the
     * current timing parameters; nullptr detaches.  `chan_id` is
     * stamped into every announced command for provenance.
     */
    void setCommandObserver(CommandObserver *obs,
                            std::uint32_t chan_id);

    /** Begin issuing per-rank auto-refresh (staggered). */
    void startRefresh();

    /** Flush rank accounting to `now`; returns per-rank activity. */
    void sampleRanks(Tick now, std::vector<RankActivity> &out);

    /**
     * This channel's cumulative counter block, after the ranks' due
     * demotion rungs apply (they count in pdDemotions).
     */
    const McCounters &
    counters()
    {
        settlePlans();
        return counters_;
    }

    /**
     * Publish this channel's counters (and its ranks') under `prefix`
     * (e.g. "mc0.chan1").  Pointer registration only — no effect on
     * scheduling or accounting.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Requests queued or in flight (reads + writes). */
    std::size_t pending() const { return pending_; }

    /** Ranks currently in a CKE-low state (checkpoint metadata). */
    std::uint32_t ranksPoweredDown() const;

    /**
     * Deferred closes pending in this channel's ranks (metadata), once
     * their due demotion rungs have applied.
     */
    std::uint32_t pendingRankCloses();

    const TimingParams &timing() const { return tp_; }

    /**
     * Stable channel index used as the `owner` field of this
     * channel's event tags (set by the controller; standalone test
     * channels keep 0).
     */
    void setId(std::uint32_t id) { id_ = id; }
    std::uint32_t id() const { return id_; }

    /** @name Checkpoint/restore */
    /// @{
    /**
     * Scheduler, bank/rank, and queue state (queues as request-pool
     * slab indices); restores into a freshly constructed channel.
     * The timing is not stored: a restore adopts `tp`, the one of the
     * controller's frequency point for this channel.  `taken` marks
     * the pool slots a restored queue may not hold (the free ones,
     * then each one already queued).  Save ignores both.
     */
    void transfer(SectionIO &io, const TimingParams &tp,
                  std::vector<bool> &taken);

    /** Reconstruct the closure of a tagged pending event (restore). */
    EventCallback rebuildEvent(std::uint32_t kind, std::uint64_t a,
                               std::uint64_t b);

    /**
     * Once every pending event is rebuilt: fatal unless this channel's
     * events (section "sim") agree with its restored state ("mc").
     * Each bank in service awaits exactly one burst, for its queue's
     * head, and each rank's accounting leaves exactly the open banks
     * the pending precharges will close.
     */
    void checkPendingEvents(const std::vector<PendingEvent> &pend);
    /// @}

  private:
    struct BankCtl
    {
        Bank bank;
        ReqQueue q;
    };

    BankCtl &bankCtl(std::uint32_t rank, std::uint32_t bank);
    Rank &rank(std::uint32_t r) { return ranks_[r]; }

    /** Queue a request at its bank (with BTO/BTC accounting). */
    void dispatchToBank(MemRequest *req);

    /** Plan the head request of a bank if the bank is free. */
    void tryService(std::uint32_t rank, std::uint32_t bank);

    /** Burst completed: finish the request, advance the bank. */
    void onBurstDone(MemRequest *req, Tick chan_burst);

    /** Move writebacks to bank queues per the priority rule. */
    void pumpWrites();

    /** Enter powerdown if the rank is idle and the mode allows. */
    void maybePowerdown(std::uint32_t rank);

    /**
     * @name Idle-ladder demotion (PowerdownMode::Ladder).
     *
     * Entering fast-PD records the rank's demotion plan: the tick of
     * every rung below, up to the first zero dwell.  No event is
     * scheduled.  Whenever the channel next touches the rank (an
     * access, a burst or precharge completion, a refresh, a relock
     * edge, a sample or a checkpoint), settlePlan() first applies the
     * rungs due by then, in tick order and piecewise with the rank's
     * deferred bank transitions (a transition first at a tie), as the
     * timer chain that armed each rung at idle entry or at the
     * previous rung did.  A rung on the touch's own tick applies
     * before the touch.  A rung that finds the rank not fully idle
     * refuses the rest, and any wake drops the plan.  Demotions
     * re-announce PowerdownEnter with the deeper state (the checker
     * validates the walk) and may apply inside a frequency re-lock
     * window: the rank then stays resident through the relock instead
     * of waking with the parked ranks.
     */
    /// @{
    void armPlan(std::uint32_t rank);
    void dropPlan(std::uint32_t rank);
    /** Apply rank `r`'s due rungs (cheap when no plan is armed). */
    void
    settlePlan(std::uint32_t r)
    {
        if (armedPlans_ != 0 && plans_[r].next != plans_[r].size)
            applyDueRungs(r);
    }
    /** settlePlan() for every rank: a sample's or a checkpoint's. */
    void
    settlePlans()
    {
        for (std::uint32_t r = 0; r < ranks_.size(); ++r)
            settlePlan(r);
    }
    void applyDueRungs(std::uint32_t rank);
    /** One rank's plan, in the rank's checkpoint record. */
    void transferPlan(SectionIO &io, std::uint32_t rank);
    /// @}

    void refreshRank(std::uint32_t rank);

    /** Settles the rank to `at`, then: no open bank, no queued or
     * in-service request. */
    bool rankFullyIdleAt(std::uint32_t rank, Tick at);

    /** Announce a command to the observer, if any. */
    void emit(DramCmdEvent ev);

    /** Announce a rank CKE transition (enter/exit powerdown).  For
     * enters, `state` is the idle rung entered; exits pass Up. */
    void emitCke(DramCmd cmd, Tick at, Tick done_at,
                 std::uint32_t rank,
                 RankIdleState state = RankIdleState::Up);

    /**
     * @name Scheduled-event bodies.  Each corresponds to one
     * EventKind so a checkpointed event can be rebuilt from its tag;
     * live scheduling and rebuildEvent() share these methods.
     */
    /// @{
    void evBurstDone(MemRequest *req, Tick chan_burst, Tick burst_acct);
    /** Trailing-precharge decision point; `close` records the
     * precharge at this tick first (false: a decision scheduled when
     * the mode left None, whose closes the rank already holds). */
    void evPreDone(std::uint32_t r, bool close);
    void evRelockEnter(std::uint32_t r);
    void evRelockExit(std::uint32_t r);
    void evRefreshDone(std::uint32_t r);
    /// @}

    EventQueue &eq_;
    const MemConfig &cfg_;
    RequestPool &pool_;
    McCounters counters_;
    TimingParams tp_;

    std::vector<Rank> ranks_;
    std::vector<BankCtl> banks_;        ///< rank-major
    std::vector<Tick> pdExitReadyAt_;   ///< per rank

    /**
     * A rank's demotion plan.  Rung i demotes to the state i + 1 below
     * fast-PD, so the rank sits at fast-PD + `next` while rungs
     * [next, size) are pending.
     */
    struct DemotionPlan
    {
        std::array<Tick, 4> at = {};
        std::uint8_t next = 0;
        std::uint8_t size = 0;
    };
    std::vector<DemotionPlan> plans_;   ///< per rank
    std::uint32_t armedPlans_ = 0;      ///< ranks with pending rungs
    /**
     * Ranks force-parked in fast-PD by the re-lock quiescence (they
     * were awake when it began).  Parked ranks wake at relock exit;
     * ranks that were already resident — or that demoted deeper
     * during the window — stay down and pay their own exit latency on
     * the next access.
     */
    std::vector<std::uint8_t> relockParked_;

    ReqQueue writeQueue_;
    bool drainMode_ = false;

    Tick busFreeAt_ = 0;
    Tick suspendedUntil_ = 0;

    std::size_t pending_ = 0;
    std::size_t pendingReads_ = 0;

    PowerdownMode pdMode_ = PowerdownMode::None;
    std::uint32_t decoupledDeviceMHz_ = 0;
    double throttleUtil_ = 0.0;       ///< 0 disables
    Tick lastBurstStart_ = 0;
    bool refreshRunning_ = false;

    CommandObserver *obs_ = nullptr;
    std::uint32_t chanId_ = 0;
    std::uint32_t id_ = 0;     ///< event-tag owner id (setId)
};

} // namespace memscale

#endif // MEMSCALE_MEM_CHANNEL_HH
