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
 * allocation for captures up to EventCallback::InlineCapacity bytes).
 * EventIds carry a generation so a recycled slot can never be
 * cancelled through a stale id.
 *
 * Ordering entries sit in one flat array kept sorted *descending* by
 * (when, class, seq), so the next event is the back element and
 * popping it is pop_back().  The simulator keeps few events pending
 * (22-37 on average and at most 108 per pop across the benchmark
 * workloads), and a new event usually lands near the soonest end, so
 * the Fast kernel finds its slot with an insertion step walked from
 * the back; cancellation is eager.  At that depth the flat array beat
 * the six-level calendar queue it replaced on every workload.
 *
 * Pop order is exactly (tick, class, seq) in both kernels.  The
 * Reference kernel shares the array and differs only in how schedule()
 * finds the insert point (a binary search); it is the oracle the
 * differential harness checks the Fast kernel against.
 */

#ifndef MEMSCALE_SIM_EVENT_QUEUE_HH
#define MEMSCALE_SIM_EVENT_QUEUE_HH

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
 * Kernel implementation selector.  Both keep the same sorted array;
 * Fast inserts by walking from the soonest end, Reference by binary
 * search, which makes it the independent correctness oracle for the
 * differential harness (harness/differential).  Both modes run
 * events in the identical (tick, class, seq) order, so a simulation
 * must produce bit-identical results under either.
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
     * resources it captured) and the ordering entry are both removed
     * immediately.
     */
    bool cancel(EventId id);

    /** Number of pending events. */
    std::size_t pending() const { return events_.size(); }

    bool empty() const { return events_.empty(); }

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
     * mode — (when, class, seq) is a total order and seq is assigned
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
     * EventId, so cancel matches an entry with one compare.  The
     * callback lives in slots_[slot].
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

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t idx);

    /** Pop the soonest entry, release its slot and run its callback. */
    void fireBack();

    /**
     * Every pending entry, sorted *descending* by (when, cls, seq):
     * the next event is events_.back().
     */
    std::vector<Entry> events_;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = NoSlot;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    bool stopped_ = false;
    KernelMode mode_ = KernelMode::Fast;
};

} // namespace memscale

#endif // MEMSCALE_SIM_EVENT_QUEUE_HH
