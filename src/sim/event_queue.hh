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
 * Virtual events.  A component may stand in for a chain of timer
 * events with state it applies lazily (mem/channel's idle-ladder
 * demotion plans).  It then has to know, on a tie, whether such a
 * timer would already have run, and which insertion sequence the next
 * timer of the chain would have taken.  keepPositions() turns on a
 * short log of the positions the queue has passed, one entry per
 * event run, and reached() and seqWhenReached() answer both
 * questions.  A run that never turns the log on pays one untaken
 * branch per event for it.
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
        if (when < now_)
            pastTick(when);
        std::uint32_t slot = freeHead_;
        if (slot != NoSlot)
            freeHead_ = slots_[slot].nextFree;
        else
            slot = growSlots();
        Slot &s = slots_[slot];
        s.fn = std::move(fn);
        s.tag = tag;
        std::uint64_t seq = nextSeq_++;
        insert({when, (static_cast<std::uint64_t>(cls) << ClsShift) | seq,
                slot});
    }

    /** Schedule fn `delta` ticks from now. */
    void
    scheduleIn(Tick delta, EventCallback fn,
               EventClass cls = EventClass::Hardware, EventTag tag = {})
    {
        schedule(now_ + delta, std::move(fn), cls, tag);
    }

    /** Number of pending events. */
    std::size_t pending() const { return events_.size(); }

    bool empty() const { return events_.empty(); }

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

    /** The insertion sequence the next schedule() takes. */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /** @name Virtual events (see the file comment) */
    /// @{
    /**
     * Start (or keep) logging passed positions, holding at least the
     * last `span` ticks of them.  A virtual event is a Hardware event
     * at tick `when` that a timer scheduled when nextSeq() was `seq`
     * would be; it sorts before a real event of the same tick and
     * sequence, which was scheduled after it.
     */
    void
    keepPositions(Tick span)
    {
        if (span > logSpan_)
            logSpan_ = span;
        if (!logging_) {
            logging_ = true;
            logFrom_ = now_ + 1;
        }
    }

    /**
     * Whether the virtual event (when, seq) would have run by now:
     * before the running event, or, between runs, before everything
     * the last run got to.  Needs keepPositions().
     */
    bool
    reached(Tick when, std::uint64_t seq) const
    {
        return when < now_ || (when == now_ && seq <= curKey_);
    }

    /**
     * The insertion sequence a timer scheduled by the reached virtual
     * event (when, seq) would take, i.e. nextSeq() when the queue
     * passed it.  `when` must lie within the logged span.
     */
    std::uint64_t seqWhenReached(Tick when, std::uint64_t seq) const;
    /// @}

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
     * event (from 0) gets 2(i+1), and a virtual event exportSeq() the
     * odd number just above the last exported event before it.  A
     * restore that gives the events those numbers and the queue 2n+2
     * as its next sequence (restore(), setNextSeq()) keeps every
     * tie-break, and a checkpoint's bytes do not depend on how many
     * sequences the run used up.
     */
    std::vector<PendingEvent> exportPending() const;

    /** The renumbered sequence of the virtual event (when, seq). */
    std::uint64_t exportSeq(Tick when, std::uint64_t seq) const;

    /**
     * Destroy every pending event (restore drops the freshly
     * constructed system's events before re-scheduling the saved
     * ones).
     */
    void clearPending();

    /**
     * Jump the clock to `t` on an empty queue (restore only); the
     * position log restarts there.
     */
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

    /** Insert an ordering entry: one insertion step from the back. */
    void insert(const Entry &e);

    /** Pop the soonest entry, release its slot and run its callback. */
    void fireBack();

    /** Exported (non-ephemeral) events that run before (when, key). */
    std::uint64_t exportedBefore(Tick when, std::uint64_t key) const;

    /**
     * One passed position: an event run, or the end of a run that
     * passed everything up to `when`.  `seq` is nextSeq() as the queue
     * left the position before.
     */
    struct Passed
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
    };

    /** Log the position of `e`, about to run (keepPositions() on). */
    void logPosition(const Entry &e);
    /** Log that a run passed everything up to now(). */
    void logRunEnd();

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

    /** @name Position log (keepPositions()) */
    /// @{
    bool logging_ = false;
    Tick logSpan_ = 0;
    /** Passed positions in passing order, oldest first. */
    std::vector<Passed> passed_;
    /** Key of the running (or last run) event; ~0 between runs. */
    std::uint64_t curKey_ = ~std::uint64_t(0);
    /**
     * Tick of the last run end: an event run later at that tick was
     * scheduled after the run passed the whole tick.
     */
    Tick runEndAt_ = MaxTick;
    /** Positions before this tick are not (or no longer) logged. */
    Tick logFrom_ = 0;
    /** Log size that triggers the next trim. */
    std::size_t trimAt_ = 256;
    /// @}
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
