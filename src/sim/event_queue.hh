/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are closures scheduled at absolute ticks.  Ties are broken by
 * (priority, insertion sequence) so simulations are reproducible
 * regardless of scheduler internals.  Events can be cancelled via the
 * EventId returned at scheduling time.
 *
 * Internals are built for throughput.  Callbacks live in a slab of
 * pooled slots recycled through a free list (no per-event heap
 * allocation for captures up to EventCallback::InlineCapacity bytes)
 * and cancellation is lazy — a cancelled event's slot is released
 * immediately while its ordering entry is skipped when it surfaces
 * (or swept during periodic compaction after heavy cancel churn).
 * EventIds carry a generation so a recycled slot can never be
 * cancelled through a stale id.
 *
 * The Fast kernel is a **calendar queue** (hierarchical timing wheel):
 * six levels of 64 fixed-width tick buckets with one occupancy bitmask
 * per level.  Level 0 buckets span 2^12 ticks (~4 ns — on the order
 * of one DRAM command slot), each higher level is 64x wider, so the
 * wheel covers ~2^48 ticks (~4.7 simulated minutes) ahead of the
 * consumption point.  Events beyond that horizon (diurnal arrival
 * phases, far refresh horizons) fall back to a sorted overflow
 * min-heap.  The bucket under consumption is sorted once and consumed
 * through a cursor; far buckets stay unsorted until the wheel reaches
 * them, and higher-level buckets scatter one level down as the wheel
 * advances.  The earliest live entry is cached, so a run of pops from
 * the cursor bucket never rescans the wheel.
 *
 * Pop order is exactly (tick, class, seq) in both kernels; the
 * Reference kernel (a sorted list with eager cancel) is the oracle
 * the differential harness checks the calendar against.
 */

#ifndef MEMSCALE_SIM_EVENT_QUEUE_HH
#define MEMSCALE_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/callback.hh"

namespace memscale
{

/**
 * Handle to a scheduled event, usable for cancellation.  Packs a slab
 * slot index (low 32 bits) with the slot's generation at scheduling
 * time (high 32 bits); generations start at 1, so no valid id is 0.
 */
using EventId = std::uint64_t;

/** Sentinel id for "no event". */
inline constexpr EventId InvalidEventId = 0;

/**
 * Priority classes for same-tick ordering.  Lower values run first.
 * Counter sampling must observe state *after* the hardware settles at
 * a tick, hence the Sample class runs last.
 */
enum class EventClass : std::uint8_t
{
    Hardware = 0,  ///< DRAM/MC/CPU state transitions
    Policy = 1,    ///< OS policy invocations
    Sample = 2,    ///< statistics sampling / epoch bookkeeping
};

/**
 * Serializable description of a scheduled event.  Closures cannot be
 * written to a checkpoint, so every schedule site provides a tag —
 * the event's kind (sim/event_kinds.hh), the scheduling component
 * (owner, e.g. a channel or core id), and two operands whose meaning
 * is kind-specific.  On resume the owning component reconstructs an
 * equivalent closure from the tag.  kind == EvNone marks an untagged
 * event; exporting one is fatal, so new schedule sites cannot silently
 * break checkpointing.
 */
struct EventTag
{
    std::uint32_t kind = 0;   ///< EventKind (0 = EvNone = untagged)
    std::uint32_t owner = 0;  ///< scheduling component id
    std::uint64_t a = 0;      ///< kind-specific operand
    std::uint64_t b = 0;      ///< kind-specific operand
};

/** One pending event as exported for a checkpoint. */
struct PendingEvent
{
    Tick when = 0;
    EventClass cls = EventClass::Hardware;
    EventTag tag;
};

/**
 * Kernel implementation selector.  Fast is the production calendar
 * queue; Reference is a deliberately simple sorted-list
 * kernel with eager cancellation that serves as the correctness
 * oracle for the differential harness (harness/differential).  Both
 * modes run events in the identical (tick, class, seq) order, so a
 * simulation must produce bit-identical results under either.
 */
enum class KernelMode : std::uint8_t
{
    Fast,
    Reference,
};

class EventQueue
{
  public:
    explicit EventQueue(KernelMode mode = KernelMode::Fast)
        : mode_(mode)
    {}

    KernelMode mode() const { return mode_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule fn at absolute tick `when` (>= now).  `tag` is the
     * event's serializable identity for checkpointing; untagged events
     * are legal to run but fatal to checkpoint.
     * @return an id usable with cancel().
     */
    EventId schedule(Tick when, EventCallback fn,
                     EventClass cls = EventClass::Hardware,
                     EventTag tag = {});

    /** Schedule fn `delta` ticks from now. */
    EventId
    scheduleIn(Tick delta, EventCallback fn,
               EventClass cls = EventClass::Hardware, EventTag tag = {})
    {
        return schedule(now_ + delta, std::move(fn), cls, tag);
    }

    /**
     * Cancel a pending event.  Cancelling an already-fired or unknown
     * id is a harmless no-op (returns false).  The callback (and any
     * resources it captured) is destroyed immediately; the ordering
     * entry is reclaimed lazily.
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events.  Exact at all times. */
    std::size_t pending() const { return pending_; }

    bool empty() const { return pending_ == 0; }

    /**
     * Run events until the queue drains or `limit` ticks is passed.
     * Events scheduled exactly at `limit` still run.  Returns the
     * number of events executed.
     */
    std::uint64_t runUntil(Tick limit = MaxTick);

    /** Execute exactly one event if any is pending; returns true if so. */
    bool step();

    /** Abort the current runUntil() after the in-flight event returns. */
    void stop() { stopped_ = true; }

    /** @name Checkpoint support */
    /// @{
    /**
     * Export every pending event's tag, sorted by execution order
     * (when, class, insertion sequence).  EvEphemeral-tagged events
     * (the checkpoint writer's own) are skipped; an untagged
     * (EvNone) live event is fatal — it could not be reconstructed.
     *
     * Order-stability guarantee: the exported order is the exact
     * order the events would have executed in, independent of kernel
     * mode and of where each event sits (calendar bucket or overflow
     * heap) — (when, class, seq) is a total order and seq is assigned
     * at schedule time.
     */
    std::vector<PendingEvent> exportPending() const;

    /**
     * Destroy every pending event (restore drops the freshly
     * constructed system's events before re-scheduling the saved
     * ones).
     */
    void clearPending();

    /**
     * Jump the clock to `t` on an empty queue (restore only).
     * Re-scheduled events then carry fresh insertion sequences in
     * saved execution order, preserving all same-tick tie-breaks.
     */
    void setNow(Tick t);
    /// @}

  private:
    /**
     * Ordering entry: 24 trivially-copyable bytes.  `key` packs the
     * event class above a 56-bit insertion sequence, so the same-tick
     * tie-break (class, then seq) is a single integer compare; `id`
     * packs (generation << 32 | slot) exactly like the public
     * EventId, so staleness checks and cancel matching reuse one
     * field.  The callback lives in slots_[slot].
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t id;
    };

    static constexpr unsigned ClsShift = 56;

    static std::uint32_t entrySlot(const Entry &e)
    {
        return static_cast<std::uint32_t>(e.id);
    }
    static std::uint32_t entryGen(const Entry &e)
    {
        return static_cast<std::uint32_t>(e.id >> 32);
    }
    static std::uint8_t entryCls(const Entry &e)
    {
        return static_cast<std::uint8_t>(e.key >> ClsShift);
    }

    /** Pooled callback storage, recycled through freeHead_. */
    struct Slot
    {
        EventCallback fn;
        EventTag tag;
        std::uint32_t gen = 1;
        std::uint32_t nextFree = NoSlot;
        bool live = false;
    };

    static constexpr std::uint32_t NoSlot = ~std::uint32_t(0);

    /**
     * Calendar geometry.  Level-0 buckets are 2^Shift0 ticks wide;
     * each level is 64 buckets (one occupancy bit each), each higher
     * level 64x coarser.  Events further out than the top level's
     * span sit in the overflow heap.
     */
    static constexpr unsigned LevelBits = 6;
    static constexpr unsigned BucketsPerLevel = 1u << LevelBits;
    static constexpr unsigned NumLevels = 6;
    static constexpr unsigned Shift0 = 12;

    struct Wheel
    {
        std::vector<std::vector<Entry>> b;  ///< lazily sized to 64
        std::uint64_t occ = 0;              ///< bit i: bucket i non-empty
    };

    bool liveEntry(const Entry &e) const
    {
        const Slot &s = slots_[entrySlot(e)];
        return s.live && s.gen == entryGen(e);
    }

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t idx);

    /** Place an entry into wheels/overflow (placement only). */
    void placeCalendar(const Entry &e);

    /**
     * Earliest live calendar entry (cached), or nullptr.  May purge
     * stale entries and empty buckets while scanning.
     */
    const Entry *calendarHead();
    bool scanCalendar(Entry &out);

    /** Remove `head` (the current calendar minimum), advancing the wheel. */
    void popCalendar(const Entry &head);

    /** Drop all stale entries when they dominate the structures. */
    void maybeSweep();
    void sweep();

    /**
     * Reference mode: kept fully sorted *descending* by (when, cls,
     * seq), so the next event is heap_.back() and popping it is O(1);
     * inserts and cancels are linear, which is fine for an oracle.
     * Unused in Fast mode.
     */
    std::vector<Entry> heap_;

    std::array<Wheel, NumLevels> wheels_;
    std::vector<Entry> overflow_;  ///< min-heap of beyond-horizon events
    /**
     * Wheel consumption point: every live wheel entry satisfies its
     * level/index placement rule relative to wheelNow_.  Advances
     * only when the pop path enters a new bucket (never past a live
     * entry), so it can lag now_ after a runUntil() horizon advance —
     * placement is measured from wheelNow_, which keeps lagging safe.
     */
    Tick wheelNow_ = 0;
    std::uint32_t curPos_ = 0;  ///< consumed prefix of the current bucket
    bool curSorted_ = false;    ///< current bucket sorted & under cursor
    /**
     * Cached calendar minimum.  Validity implies liveness: every path
     * that kills an event invalidates or refreshes the cache, so the
     * pop path never re-checks the slot generation.
     */
    Entry calHead_{};
    bool calHeadValid_ = false;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = NoSlot;
    std::size_t pending_ = 0;
    /** Entries whose event has been cancelled but not yet reclaimed. */
    std::size_t stale_ = 0;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    bool stopped_ = false;
    KernelMode mode_ = KernelMode::Fast;
};

} // namespace memscale

#endif // MEMSCALE_SIM_EVENT_QUEUE_HH
