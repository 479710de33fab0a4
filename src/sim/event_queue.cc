#include "sim/event_queue.hh"

#include <algorithm>

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
    if (logging_)
        logPosition(events_.back());
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
        if (logging_)
            logPosition(events_.back());
        fireBack();
        ++executed;
    }
    // Advance the clock to the horizon unless stopped early; any
    // remaining events all lie beyond it.
    if (!stopped_ && limit != MaxTick && now_ < limit)
        now_ = limit;
    if (!stopped_ && logging_)
        logRunEnd();
    return executed;
}

void
EventQueue::logPosition(const Entry &e)
{
    // An event run at the tick a run already passed in full was
    // scheduled after that: it runs after every virtual event there.
    curKey_ = e.when == runEndAt_ ? ~std::uint64_t(0) : e.key;
    passed_.push_back({e.when, curKey_, nextSeq_});
    if (passed_.size() < trimAt_)
        return;
    // Keep the last logSpan_ ticks; amortised O(1) per event.
    if (e.when > logSpan_) {
        const Tick cutoff = e.when - logSpan_;
        auto keep = std::partition_point(
            passed_.begin(), passed_.end(),
            [cutoff](const Passed &p) { return p.when < cutoff; });
        passed_.erase(passed_.begin(), keep);
        logFrom_ = std::max(logFrom_, cutoff);
    }
    trimAt_ = std::max<std::size_t>(256, 2 * passed_.size());
}

void
EventQueue::logRunEnd()
{
    curKey_ = ~std::uint64_t(0);
    runEndAt_ = now_;
    passed_.push_back({now_, curKey_, nextSeq_});
}

std::uint64_t
EventQueue::seqWhenReached(Tick when, std::uint64_t seq) const
{
    if (when < logFrom_)
        panic("EventQueue: virtual event at tick %llu precedes the "
              "position log (from tick %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(logFrom_));
    // The first logged position the virtual event comes before: the
    // queue left it with the sequence that position records.
    auto it = std::partition_point(
        passed_.begin(), passed_.end(), [&](const Passed &p) {
            return p.when < when || (p.when == when && p.key < seq);
        });
    if (it == passed_.end())
        panic("EventQueue: virtual event at tick %llu not reached",
              static_cast<unsigned long long>(when));
    return it->seq;
}

std::vector<PendingEvent>
EventQueue::exportPending() const
{
    // events_ is already in reverse execution order.
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
        out.push_back({e.when, static_cast<EventClass>(entryCls(e)),
                       2 * (out.size() + 1), tag});
    }
    return out;
}

std::uint64_t
EventQueue::exportedBefore(Tick when, std::uint64_t key) const
{
    std::uint64_t n = 0;
    for (const Entry &e : events_) {
        if ((e.when < when || (e.when == when && e.key < key)) &&
            slots_[e.slot].tag.kind != EvEphemeral)
            ++n;
    }
    return n;
}

std::uint64_t
EventQueue::exportSeq(Tick when, std::uint64_t seq) const
{
    return 2 * exportedBefore(when, seq) + 1;
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
    passed_.clear();
    curKey_ = ~std::uint64_t(0);
    runEndAt_ = t;
    logFrom_ = t;
    if (!events_.empty())
        panic("EventQueue::setNow with %zu events pending",
              events_.size());
    if (t < now_)
        panic("EventQueue::setNow moving backwards (%llu -> %llu)",
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(t));
    now_ = t;
}

void
EventQueue::setNextSeq(std::uint64_t seq)
{
    if (!events_.empty())
        panic("EventQueue::setNextSeq with %zu events pending",
              events_.size());
    nextSeq_ = seq;
}

void
EventQueue::restore(const PendingEvent &pe, EventCallback fn)
{
    if (pe.when < now_)
        pastTick(pe.when);
    std::uint32_t slot = freeHead_;
    if (slot != NoSlot)
        freeHead_ = slots_[slot].nextFree;
    else
        slot = growSlots();
    slots_[slot].fn = std::move(fn);
    slots_[slot].tag = pe.tag;
    insert({pe.when,
            (static_cast<std::uint64_t>(pe.cls) << ClsShift) | pe.seq,
            slot});
}

} // namespace memscale
