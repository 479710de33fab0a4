/**
 * @file
 * The memory controller: address mapping, per-channel dispatch, the
 * shared DVFS/DFS frequency domain (MC + buses + DIMMs + devices lock
 * together, paper Section 3.1), counter sampling, and the activity
 * interface consumed by the power integrator.
 *
 * As an extension of the paper's future work, channels may also be
 * re-locked individually (setChannelFrequency) and expose per-channel
 * counter blocks, enabling per-channel DVFS policies.
 */

#ifndef MEMSCALE_MEM_CONTROLLER_HH
#define MEMSCALE_MEM_CONTROLLER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "mem/address_map.hh"
#include "mem/channel.hh"
#include "mem/client.hh"
#include "mem/config.hh"
#include "mem/counters.hh"
#include "mem/migration.hh"
#include "mem/request_pool.hh"
#include "power/system_power.hh"
#include "sim/event_queue.hh"

namespace memscale
{

class SectionIO;
class StatRegistry;

class MemoryController
{
  public:
    MemoryController(EventQueue &eq, const MemConfig &cfg,
                     FreqIndex initial = nominalFreqIndex);

    /**
     * Issue an LLC miss; client->onMemComplete fires when data
     * returns.  The client must outlive the request (lambda-style
     * callers wrap themselves in FnClient / LambdaClients, mem/client).
     */
    void read(Addr addr, CoreId core, MemClient *client);

    /** Issue an LLC writeback (fire and forget). */
    void writeback(Addr addr, CoreId core);

    /// @name DVFS/DFS control.
    /// @{
    /**
     * Re-lock the whole memory subsystem to a new grid point.
     * A no-op when nothing changes.  Returns the tick at which
     * commands may issue again.
     */
    Tick setFrequency(FreqIndex idx);

    /**
     * Re-lock a single channel (per-channel DVFS extension).  The MC
     * clock follows the fastest channel.
     */
    Tick setChannelFrequency(std::uint32_t channel, FreqIndex idx);

    /** Fastest channel's grid point (the MC's domain). */
    FreqIndex frequency() const;
    /** A specific channel's grid point. */
    FreqIndex channelFrequency(std::uint32_t ch) const
    {
        return chanFreq_[ch];
    }
    std::uint32_t busMHz() const
    {
        return TimingParams::at(frequency()).busMHz;
    }

    /**
     * Hook invoked just *before* a frequency change takes effect, so
     * the energy integrator can close the constant-frequency interval.
     */
    void
    setBeforeFreqChangeHook(std::function<void()> fn)
    {
        beforeFreqChange_ = std::move(fn);
    }
    /// @}

    /** Idle-rank powerdown policy (baseline: None). */
    void setPowerdownMode(PowerdownMode mode);

    /**
     * Decoupled-DIMM mode: devices at device_mhz, channel stays at the
     * current grid frequency.
     */
    void setDecoupled(std::uint32_t device_mhz);
    std::uint32_t decoupledDeviceMHz() const { return decoupledMHz_; }

    /** Cap data-bus utilization on every channel (throttling). */
    void setThrottle(double max_utilization);

    /**
     * Attach an observer to every channel's DRAM command stream
     * (check/command_observer); nullptr detaches.  Channel ids are the
     * controller's channel indices.
     */
    void setCommandObserver(CommandObserver *obs);

    /** Start refresh engines (call once at simulation start). */
    void startRefresh();

    /**
     * @name Rank consolidation (cfg.ladder.migrate).
     *
     * The controller owns the PageMigrator: every request is hotness-
     * sampled and rank-remapped right after address decode, and a
     * periodic pass (EvMemMigrate) swaps hot frames onto the hot-rank
     * set, injecting the copy traffic (reads from both frames, writes
     * to both, bypassing the remap).  startMigration() arms the first
     * pass; like startRefresh() it must not be called on a resumed
     * run, whose pending pass comes from the snapshot.
     */
    /// @{
    void startMigration();

    /** The migrator, or nullptr when consolidation is off. */
    const PageMigrator *migrator() const { return migrator_.get(); }

    /** Rebuild a pending EvMemMigrate event from its tag (restore). */
    EventCallback rebuildMigrationEvent();
    /// @}

    /** Cumulative system-wide counters (callers diff snapshots). */
    McCounters sampleCounters();

    /** Cumulative counters of one channel, with its rank times. */
    McCounters sampleChannelCounters(std::uint32_t ch);

    /**
     * Cumulative rank activity + channel burst times for the power
     * integrator; callers diff consecutive samples.  dt is filled by
     * the caller for the interval.
     */
    IntervalActivity sampleActivity();

    const MemConfig &config() const { return cfg_; }
    const AddressMap &addressMap() const { return map_; }

    /** Total requests queued or in flight across channels. */
    std::size_t pending() const;

    /** Ranks currently in a CKE-low state across all channels. */
    std::uint32_t ranksPoweredDown() const;

    /** Deferred bank closes not yet applied (checkpoint metadata). */
    std::uint32_t pendingRankCloses();

    /** Request slab shared by this controller's channels. */
    const RequestPool &requestPool() const { return pool_; }

    /**
     * Publish the controller's stats tree under `prefix` (by
     * convention "mc0"): controller-level counters, a per-channel
     * busMHz gauge (the frequency-transition track of the trace
     * exporter), and every channel's and rank's counter block.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** @name Checkpoint/restore */
    /// @{
    /**
     * The request pool (capacity, free-list order, every in-flight
     * request's fields), the frequency domain, and each channel, in
     * that order, in one section.  Restores into a freshly
     * constructed controller; `clients` rebinds each in-flight read's
     * completion sink by core id (clients[req->core]), so pass the
     * per-core MemClient list the original run used.
     */
    void transfer(SectionIO &io,
                  const std::vector<MemClient *> &clients);

    /**
     * Reconstruct a channel-owned pending event from its checkpoint
     * tag (`owner` is the channel index stamped by setId).
     */
    EventCallback rebuildChannelEvent(std::uint32_t owner,
                                      std::uint32_t kind,
                                      std::uint64_t a,
                                      std::uint64_t b);

    /** Channel::checkPendingEvents() for every channel. */
    void checkPendingEvents(const std::vector<PendingEvent> &pend);
    /// @}

  private:
    EventQueue &eq_;
    MemConfig cfg_;
    AddressMap map_;
    /** Declared before channels_ so it outlives their destructors. */
    RequestPool pool_;
    std::vector<FreqIndex> chanFreq_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::uint64_t freqTransitions_ = 0;
    std::uint32_t decoupledMHz_ = 0;
    std::function<void()> beforeFreqChange_;
    std::unique_ptr<PageMigrator> migrator_;
    bool migrateArmed_ = false;

    MemRequest *makeRequest(Addr addr, CoreId core, bool is_write);
    void addRankTimes(McCounters &out, Channel &ch);
    void armMigrate();
    void evMigrate();
    /** Inject one line of migration copy traffic at a physical
     * location (no hotness sampling, no remap). */
    void issueCopy(const DecodedAddr &loc, bool is_write);
};

} // namespace memscale

#endif // MEMSCALE_MEM_CONTROLLER_HH
