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
EventQueue::append(const Entry &e)
{
    if (laneHead_ == lane_.size()) {
        lane_.clear();
        laneHead_ = 0;
        laneWhen_ = e.when;
    } else if (laneHead_ >= 32 && 2 * laneHead_ >= lane_.size()) {
        // Drop the popped prefix once it outgrows the pending part:
        // one memmove, at most one entry per append amortised.
        lane_.erase(lane_.begin(),
                    lane_.begin() + static_cast<std::ptrdiff_t>(laneHead_));
        laneHead_ = 0;
    }
    lane_.push_back(e);
}

bool
EventQueue::popDue(Tick limit, Entry &e)
{
    bool from_lane;
    if (events_.empty())
        from_lane = laneHead_ != lane_.size();
    else if (events_.back().when != laneWhen_)
        from_lane = laneWhen_ < events_.back().when;
    else
        from_lane = laneHead_ != lane_.size() &&
                    lane_[laneHead_].key < events_.back().key;
    if (from_lane) {
        if (laneWhen_ > limit)
            return false;
        e = lane_[laneHead_++];
        laneWhen_ = laneHead_ == lane_.size() ? MaxTick
                                               : lane_[laneHead_].when;
        return true;
    }
    if (events_.empty() || events_.back().when > limit)
        return false;
    e = events_.back();
    events_.pop_back();
    return true;
}

void
EventQueue::fire(const Entry &e)
{
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
    Entry e;
    if (!popDue(MaxTick, e))
        return false;
    fire(e);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    stopped_ = false;
    std::uint64_t executed = 0;
    Entry e;
    while (!stopped_ && popDue(limit, e)) {
        fire(e);
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
    // Merge the array, in reverse, with the lane: execution order.
    std::vector<PendingEvent> out;
    out.reserve(pending());
    std::size_t i = events_.size();
    std::size_t j = laneHead_;
    while (i > 0 || j < lane_.size()) {
        const bool from_lane =
            j < lane_.size() &&
            (i == 0 || runsBefore(lane_[j], events_[i - 1]));
        const Entry &e = from_lane ? lane_[j++] : events_[--i];
        const EventTag &tag = slots_[e.slot].tag;
        if (tag.kind == EvEphemeral)
            continue;
        if (tag.kind == EvNone)
            fatal("checkpoint: untagged event pending at tick %llu "
                  "(class %u) cannot be serialized",
                  static_cast<unsigned long long>(e.when),
                  static_cast<unsigned>(entryCls(e)));
        out.push_back({e.when, static_cast<EventClass>(entryCls(e)),
                       out.size() + 1, tag});
    }
    return out;
}

void
EventQueue::clearPending()
{
    for (const Entry &e : events_)
        releaseSlot(e.slot);
    for (std::size_t j = laneHead_; j < lane_.size(); ++j)
        releaseSlot(lane_[j].slot);
    events_.clear();
    lane_.clear();
    laneHead_ = 0;
    laneWhen_ = MaxTick;
}

void
EventQueue::setNow(Tick t)
{
    if (!empty())
        panic("EventQueue::setNow with %zu events pending", pending());
    if (t < now_)
        panic("EventQueue::setNow moving backwards (%llu -> %llu)",
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(t));
    now_ = t;
}

void
EventQueue::setNextSeq(std::uint64_t seq)
{
    if (!empty())
        panic("EventQueue::setNextSeq with %zu events pending",
              pending());
    nextSeq_ = seq;
}

void
EventQueue::restore(const PendingEvent &pe, EventCallback fn)
{
    if (pe.when < now_)
        pastTick(pe.when);
    insert({pe.when,
            (static_cast<std::uint64_t>(pe.cls) << ClsShift) | pe.seq,
            takeSlot(std::move(fn), pe.tag)});
}

} // namespace memscale
