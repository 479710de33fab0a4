#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/event_kinds.hh"

namespace memscale
{

namespace
{

/**
 * The whole ordering story: (when, class, seq) ascending.  Gt turns
 * it around for the descending array.
 */
struct Lt
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }
};

struct Gt
{
    template <typename E>
    bool
    operator()(const E &a, const E &b) const
    {
        return Lt{}(b, a);
    }
};

} // namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != NoSlot) {
        std::uint32_t idx = freeHead_;
        freeHead_ = slots_[idx].nextFree;
        return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    Slot &s = slots_[idx];
    s.fn.reset();
    s.live = false;
    // Bumping the generation invalidates every outstanding EventId for
    // this slot; skip 0 on wrap so InvalidEventId never matches.
    if (++s.gen == 0)
        s.gen = 1;
    s.nextFree = freeHead_;
    freeHead_ = idx;
}

EventId
EventQueue::schedule(Tick when, EventCallback fn, EventClass cls,
                     EventTag tag)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    std::uint32_t slot = allocSlot();
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.tag = tag;
    s.live = true;
    std::uint64_t seq = nextSeq_++;
    Entry e{when,
            (static_cast<std::uint64_t>(cls) << ClsShift) | seq,
            (static_cast<std::uint64_t>(s.gen) << 32) | slot};
    if (mode_ == KernelMode::Reference) {
        // Binary search for the insert point; seq is unique, so no
        // two entries compare equal and upper_bound is exact.
        auto pos =
            std::upper_bound(events_.begin(), events_.end(), e, Gt{});
        events_.insert(pos, e);
    } else {
        // One insertion-sort step from the soonest end: new events
        // mostly land a few entries from the back, so this touches
        // only the entries that run before `e`.
        events_.push_back(e);
        std::size_t i = events_.size() - 1;
        for (; i > 0 && Lt{}(events_[i - 1], e); --i)
            events_[i] = events_[i - 1];
        events_[i] = e;
    }
    return e.id;
}

bool
EventQueue::cancel(EventId id)
{
    std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || !slots_[slot].live ||
        slots_[slot].gen != gen) {
        return false;
    }
    // A live slot always has its entry in events_.
    events_.erase(std::find_if(events_.begin(), events_.end(),
                               [id](const Entry &e) {
                                   return e.id == id;
                               }));
    releaseSlot(slot);
    return true;
}

void
EventQueue::fireBack()
{
    const Entry e = events_.back();
    events_.pop_back();
    // Release the slot before invoking so the callback can freely
    // schedule new events (possibly reusing this slot) and so
    // cancelling the in-flight id is a no-op, as documented.
    EventCallback fn = std::move(slots_[entrySlot(e)].fn);
    releaseSlot(entrySlot(e));
    now_ = e.when;
    fn();
}

bool
EventQueue::step()
{
    if (events_.empty())
        return false;
    fireBack();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    stopped_ = false;
    std::uint64_t executed = 0;
    while (!stopped_ && !events_.empty() &&
           events_.back().when <= limit) {
        fireBack();
        ++executed;
    }
    // Advance the clock to the horizon unless stopped early; any
    // remaining events all lie beyond it.
    if (!stopped_ && limit != MaxTick && now_ < limit)
        now_ = limit;
    return executed;
}

std::vector<PendingEvent>
EventQueue::exportPending() const
{
    // events_ is already in reverse execution order.  The restore side
    // re-schedules in this order with fresh sequences, which
    // reproduces every same-tick tie-break.
    std::vector<PendingEvent> out;
    out.reserve(events_.size());
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
        const Entry &e = *it;
        const EventTag &tag = slots_[entrySlot(e)].tag;
        if (tag.kind == EvEphemeral)
            continue;
        if (tag.kind == EvNone)
            fatal("checkpoint: untagged event pending at tick %llu "
                  "(class %u) cannot be serialized",
                  static_cast<unsigned long long>(e.when),
                  static_cast<unsigned>(entryCls(e)));
        out.push_back(
            {e.when, static_cast<EventClass>(entryCls(e)), tag});
    }
    return out;
}

void
EventQueue::clearPending()
{
    for (const Entry &e : events_)
        releaseSlot(entrySlot(e));
    events_.clear();
}

void
EventQueue::setNow(Tick t)
{
    if (!events_.empty())
        panic("EventQueue::setNow with %zu events pending",
              events_.size());
    if (t < now_)
        panic("EventQueue::setNow moving backwards (%llu -> %llu)",
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(t));
    now_ = t;
}

} // namespace memscale
