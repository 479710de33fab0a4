#include "sim/event_queue.hh"

#include "common/log.hh"
#include "sim/event_kinds.hh"

namespace memscale
{

std::uint32_t
EventQueue::growSlots()
{
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    Slot &s = slots_[idx];
    s.fn.reset();
    s.nextFree = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::pastTick(Tick when) const
{
    panic("event scheduled in the past (when=%llu now=%llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

void
EventQueue::fireBack()
{
    const Entry e = events_.back();
    events_.pop_back();
    // Release the slot before invoking so the callback can freely
    // schedule new events, possibly reusing this slot.
    EventCallback fn = std::move(slots_[e.slot].fn);
    releaseSlot(e.slot);
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
        const EventTag &tag = slots_[e.slot].tag;
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
        releaseSlot(e.slot);
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
