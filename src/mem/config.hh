/**
 * @file
 * Memory-system organization parameters (paper Table 2 defaults:
 * 4 DDR3 channels, 2 registered dual-rank ECC DIMMs per channel,
 * 9 x8 chips per rank, 8 banks per chip).
 */

#ifndef MEMSCALE_MEM_CONFIG_HH
#define MEMSCALE_MEM_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace memscale
{

class SectionIO;

/** Idle rank powerdown management mode. */
enum class PowerdownMode : std::uint8_t
{
    None,      ///< ranks stay in standby (baseline)
    FastExit,  ///< immediate fast-exit precharge powerdown (Fast-PD)
    SlowExit,  ///< immediate slow-exit precharge powerdown (Slow-PD)
    /**
     * Immediate self-refresh entry (tXS ~ 120 ns exit).  Not
     * evaluated by the paper -- included to quantify why even
     * aggressive idle states cannot match active low-power modes.
     */
    SelfRefresh,
    /**
     * Immediate self-refresh with the slow internal clock (DLL off).
     * Lower standby current than plain self-refresh; exit pays a full
     * DLL re-lock (tXSDLL).
     */
    SelfRefreshSlow,
    /**
     * Immediate deep powerdown, modeled as a data-retaining state
     * with the interface clock tree fully off: exit pays the DLL
     * re-lock plus a full refresh cycle (tXDP).
     */
    DeepPowerdown,
    /**
     * Adaptive demotion ladder: idle ranks enter fast-exit powerdown
     * immediately and walk down through slow-exit, self-refresh,
     * slow-clock self-refresh, and deep powerdown as their idle time
     * crosses the `IdleLadderConfig` thresholds; any access promotes
     * the rank back up at that state's exit latency.
     */
    Ladder,
};

/**
 * Row-buffer management policy.  The paper uses closed-page (better
 * for multiprogrammed multi-cores, citing Sudan et al.); open-page is
 * provided for the ablation study.
 */
enum class PagePolicy : std::uint8_t
{
    ClosedPage,  ///< precharge unless a same-row request is pending
    OpenPage,    ///< keep rows open until a conflict or refresh
};

/**
 * Request scheduling within a bank queue.  The paper uses FCFS and
 * argues reordering is orthogonal for single-issue in-order cores;
 * FR-FCFS is provided for the ablation study.
 */
enum class SchedulerPolicy : std::uint8_t
{
    Fcfs,    ///< strict arrival order per bank
    FrFcfs,  ///< row hits first, then arrival order
};

/**
 * Idle-state ladder + rank-consolidation knobs (active only under
 * `PowerdownMode::Ladder`; the migrator additionally requires
 * `migrate`).  Thresholds are idle time *beyond* the previous rung's
 * threshold crossing: a rank that went idle at t0 reaches rung k at
 * t0 plus the first k thresholds (the channel's demotion plan).
 */
struct IdleLadderConfig
{
    /// @name Demotion thresholds (ticks of rank idleness per rung)
    /// @{
    Tick demoteSlowPd = nsToTick(200.0);
    Tick demoteSelfRefresh = nsToTick(1000.0);
    Tick demoteSrSlow = nsToTick(4000.0);
    Tick demoteDeepPd = nsToTick(16000.0);
    /// @}

    /// Enable rank-aware hot-page migration (consolidation).
    bool migrate = false;
    /// Consolidation pass period.
    Tick migrateInterval = usToTick(50.0);
    /// Ranks (per channel, lowest indices) that hot rows migrate onto.
    std::uint32_t hotRanks = 1;
    /// Accesses within one interval that mark a row frame as hot.
    std::uint32_t hotThreshold = 8;
    /// Row-frame swaps performed per channel per consolidation pass.
    std::uint32_t maxSwapsPerInterval = 4;
    /// Lines of copy traffic injected per migrated row frame (a full
    /// 8 KB row is 128 lines; a smaller number models partial-row
    /// dirtiness without flooding the queues).
    std::uint32_t migrationLines = 8;
    /// Direct-mapped access-counter sets per channel (power of two).
    std::uint32_t counterSets = 256;

    /** Snapshot fingerprint: every field, as `mem.ladder.<field>`. */
    void fingerprint(SectionIO &io);
};

struct MemConfig
{
    std::uint32_t numChannels = 4;
    std::uint32_t dimmsPerChannel = 2;
    std::uint32_t ranksPerDimm = 2;
    std::uint32_t banksPerRank = 8;
    std::uint32_t lineBytes = 64;
    /**
     * Bytes per DRAM row per rank: 1 KB page per x8 chip times 8 data
     * chips.
     */
    std::uint32_t rowBytes = 8192;
    std::uint64_t bytesPerRank = 1ull << 30;  ///< 2 GB dual-rank DIMM

    /** Writeback queue capacity; draining starts at half (paper 4.1). */
    std::uint32_t writeQueueDepth = 32;

    PagePolicy pagePolicy = PagePolicy::ClosedPage;
    SchedulerPolicy scheduler = SchedulerPolicy::Fcfs;

    /**
     * Consecutive lines kept in the same row before bank interleaving
     * kicks in (log2); gives streaming workloads a chance at row hits
     * under closed-page management.
     */
    std::uint32_t colLowLines = 4;

    /** Idle-state ladder + consolidation knobs (Ladder mode only). */
    IdleLadderConfig ladder;

    /**
     * Snapshot fingerprint: every field, as `mem.<field>`, the ladder
     * included.  A snapshot resumes only under the organisation it was
     * cut from.
     */
    void fingerprint(SectionIO &io);

    std::uint32_t
    ranksPerChannel() const
    {
        return dimmsPerChannel * ranksPerDimm;
    }

    std::uint32_t
    totalRanks() const
    {
        return numChannels * ranksPerChannel();
    }

    std::uint32_t
    totalDimms() const
    {
        return numChannels * dimmsPerChannel;
    }

    std::uint64_t
    linesPerRow() const
    {
        return rowBytes / lineBytes;
    }

    std::uint64_t
    rowsPerBank() const
    {
        return bytesPerRank / (static_cast<std::uint64_t>(rowBytes) *
                               banksPerRank);
    }

    std::uint64_t
    totalBytes() const
    {
        return bytesPerRank * totalRanks();
    }
};

} // namespace memscale

#endif // MEMSCALE_MEM_CONFIG_HH
