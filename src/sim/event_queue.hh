/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events are closures scheduled at absolute ticks.  Ties are broken by
 * (priority, insertion sequence) so simulations are reproducible
 * regardless of scheduler internals.  The kernel offers no
 * cancellation: the controller plans each request's whole command
 * sequence at absolute ticks, so the model never withdraws one, and
 * an event that is no longer wanted is left pending.  (System's
 * EvEphemeral stops stay pending after a run completes first and
 * never run; a restore clears the queue.)
 *
 * Internals are built for throughput.  Callbacks live in a slab of
 * pooled slots recycled through a free list, so scheduling never
 * allocates once the slab has grown (EventCallback stores every
 * capture inline).  schedule() is inline, so a call site's closure
 * and tag go into the slot from registers instead of crossing a call
 * through the stack; slab growth and the past-tick panic stay out of
 * line.
 *
 * Ordering entries sit in one flat array kept sorted *descending* by
 * (when, class, seq), so the next event is the back element and
 * popping it is pop_back().  The simulator keeps few events pending
 * (22-37 on average and at most 108 per pop across the benchmark
 * workloads), and a new event usually lands near the soonest end, so
 * the kernel finds its place with an insertion step walked from the
 * back.  At that depth the flat array beat the six-level calendar
 * queue it replaced on every workload.
 *
 * Pop order is exactly (tick, class, seq).  tests/reference_queue.hh
 * models the same contract on an ordered map, sharing no code with
 * this kernel, and the mirrored fuzzes check one against the other.
 *
 * The refresh lane.  A chain that reschedules itself a fixed period
 * ahead (mem/channel's refresh ticks, every tREFI) lands behind most
 * of the array, so an insertion walk would pass nearly every pending
 * event.  scheduleLast() appends such an entry to a second, ascending
 * FIFO lane instead, whenever it runs after the lane's last entry; a
 * pop takes the sooner of the lane's head and the array's back.  The
 * entry keeps the sequence schedule() would give it, so the lane
 * changes no order.
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
    /** Insertion sequence, renumbered by exportPending(). */
    std::uint64_t seq = 0;
    EventTag tag;
};

class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule fn at absolute tick `when` (>= now).  `tag` is the
     * event's serializable identity for checkpointing; untagged events
     * are legal to run but fatal to checkpoint.
     */
    void
    schedule(Tick when, EventCallback fn,
             EventClass cls = EventClass::Hardware, EventTag tag = {})
    {
        insert(entry(when, std::move(fn), cls, tag));
    }

    /**
     * schedule() for a periodic chain (see the file comment): appended
     * to the lane if it runs after the lane's last entry, else placed
     * in the array as schedule() would.
     */
    void
    scheduleLast(Tick when, EventCallback fn,
                 EventClass cls = EventClass::Hardware, EventTag tag = {})
    {
        const Entry e = entry(when, std::move(fn), cls, tag);
        if (laneHead_ == lane_.size() || runsBefore(lane_.back(), e))
            append(e);
        else
            insert(e);
    }

    /** Schedule fn `delta` ticks from now. */
    void
    scheduleIn(Tick delta, EventCallback fn,
               EventClass cls = EventClass::Hardware, EventTag tag = {})
    {
        schedule(now_ + delta, std::move(fn), cls, tag);
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return events_.size() + (lane_.size() - laneHead_);
    }

    bool empty() const { return pending() == 0; }

    /** Callback slots ever allocated (the slab's high-water mark). */
    std::size_t slabSize() const { return slots_.size(); }

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
     * order the events would have executed in — (when, class, seq)
     * is a total order and seq is assigned at schedule time.
     *
     * Sequences are renumbered from list position: the i-th exported
     * event (from 0) gets i + 1.  A restore that gives the events
     * those numbers and the queue n + 1 as its next sequence
     * (restore(), setNextSeq()) keeps every tie-break, and a
     * checkpoint's bytes do not depend on how many sequences the run
     * used up.
     */
    std::vector<PendingEvent> exportPending() const;

    /**
     * Destroy every pending event (restore drops the freshly
     * constructed system's events before re-scheduling the saved
     * ones).
     */
    void clearPending();

    /** Jump the clock to `t` on an empty queue (restore only). */
    void setNow(Tick t);

    /** Set the next insertion sequence on an empty queue (restore). */
    void setNextSeq(std::uint64_t seq);

    /** Re-schedule a checkpointed event with its renumbered sequence. */
    void restore(const PendingEvent &pe, EventCallback fn);
    /// @}

  private:
    /**
     * Ordering entry: 24 trivially-copyable bytes.  `key` packs the
     * event class above a 56-bit insertion sequence, so the same-tick
     * tie-break (class, then seq) is a single integer compare.  The
     * callback lives in slots_[slot].  `slot` is a full word although
     * a slot index fits 32 bits: the insertion walk copies entries a
     * word at a time, and a word read of a half-word just written
     * misses store forwarding.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t slot;
    };

    static constexpr unsigned ClsShift = 56;

    static std::uint8_t entryCls(const Entry &e)
    {
        return static_cast<std::uint8_t>(e.key >> ClsShift);
    }

    /** The whole ordering story: (when, class, seq) ascending. */
    static bool
    runsBefore(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    /** Pooled callback storage, recycled through freeHead_. */
    struct Slot
    {
        EventCallback fn;
        EventTag tag;
        std::uint32_t nextFree = NoSlot;
    };

    static constexpr std::uint32_t NoSlot = ~std::uint32_t(0);

    /** Append a fresh slot when the free list is empty. */
    std::uint32_t growSlots();
    void releaseSlot(std::uint32_t idx);

    /** schedule() at a tick before now(): an internal bug. */
    [[noreturn]] void pastTick(Tick when) const;

    /** A free slot holding `fn` and `tag`. */
    std::uint64_t
    takeSlot(EventCallback fn, const EventTag &tag)
    {
        std::uint32_t slot = freeHead_;
        if (slot != NoSlot)
            freeHead_ = slots_[slot].nextFree;
        else
            slot = growSlots();
        Slot &s = slots_[slot];
        s.fn = std::move(fn);
        s.tag = tag;
        return slot;
    }

    /** The ordering entry of a new event, with the next sequence. */
    Entry
    entry(Tick when, EventCallback fn, EventClass cls,
          const EventTag &tag)
    {
        if (when < now_)
            pastTick(when);
        const std::uint64_t slot = takeSlot(std::move(fn), tag);
        return {when,
                (static_cast<std::uint64_t>(cls) << ClsShift) | nextSeq_++,
                slot};
    }

    /** Insert an ordering entry: one insertion step from the back. */
    void insert(const Entry &e);

    /** Append to the lane; `e` runs after its last entry. */
    void append(const Entry &e);

    /**
     * Take the soonest entry, the lane's head or the array's back, if
     * it is due by `limit`.
     */
    bool popDue(Tick limit, Entry &e);

    /** Release `e`'s slot and run its callback at its tick. */
    void fire(const Entry &e);

    /**
     * Every pending entry, sorted *descending* by (when, cls, seq):
     * the array's next event is events_.back().
     */
    std::vector<Entry> events_;

    /**
     * The lane: entries [laneHead_, size) are pending, ascending by
     * (when, cls, seq).  laneWhen_ is the head's tick (MaxTick on an
     * empty lane), so a pop usually settles which side runs first
     * with one compare.
     */
    std::vector<Entry> lane_;
    std::size_t laneHead_ = 0;
    Tick laneWhen_ = MaxTick;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = NoSlot;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    bool stopped_ = false;
};

inline void
EventQueue::insert(const Entry &e)
{
    // One insertion-sort step from the soonest end: new events mostly
    // land a few entries from the back, so this touches only the
    // entries that run before `e`.
    events_.push_back(e);
    std::size_t i = events_.size() - 1;
    for (; i > 0 && runsBefore(events_[i - 1], e); --i)
        events_[i] = events_[i - 1];
    events_[i] = e;
}

} // namespace memscale

#endif // MEMSCALE_SIM_EVENT_QUEUE_HH
