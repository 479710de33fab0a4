#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "sim/event_kinds.hh"

namespace memscale
{

namespace
{

/**
 * These two comparators are the whole ordering story: Lt for
 * sorts/sorted-inserts, Gt to turn std::*_heap into min-heaps.
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
        // Sorted insert, descending, so the soonest event is at the
        // back.  upper_bound keeps ties (impossible: seq is unique)
        // stable either way.
        auto pos =
            std::upper_bound(heap_.begin(), heap_.end(), e, Gt{});
        heap_.insert(pos, e);
    } else {
        placeCalendar(e);
    }
    ++pending_;
    return e.id;
}

void
EventQueue::placeCalendar(const Entry &e)
{
    // Head-cache rule 1: an insert can only change the calendar
    // minimum by *becoming* it, so the cached head stays valid across
    // inserts (bucket ranges are disjoint and ordered, hence an entry
    // in an earlier bucket always compares lower).
    if (calHeadValid_ && Lt{}(e, calHead_))
        calHead_ = e;
    std::uint64_t x = (e.when >> Shift0) ^ (wheelNow_ >> Shift0);
    unsigned lvl = 0;
    if (x != 0) {
        lvl = (63u - static_cast<unsigned>(std::countl_zero(x))) /
              LevelBits;
        if (lvl >= NumLevels) {
            // Beyond the wheel horizon (~2^48 ticks): overflow heap.
            overflow_.push_back(e);
            std::push_heap(overflow_.begin(), overflow_.end(), Gt{});
            return;
        }
    }
    Wheel &w = wheels_[lvl];
    if (w.b.empty())
        w.b.resize(BucketsPerLevel);
    unsigned shift = Shift0 + LevelBits * lvl;
    unsigned idx =
        static_cast<unsigned>(e.when >> shift) & (BucketsPerLevel - 1);
    auto &v = w.b[idx];
    if (x == 0 && curSorted_) {
        // Scheduling into the bucket under the cursor: keep the live
        // region sorted so a same-tick lower-class event lands exactly
        // where the cursor reads next.
        auto pos = std::upper_bound(v.begin() + curPos_, v.end(), e,
                                    Lt{});
        v.insert(pos, e);
    } else {
        v.push_back(e);
    }
    w.occ |= std::uint64_t(1) << idx;
}

const EventQueue::Entry *
EventQueue::calendarHead()
{
    // Head-cache rule 2: validity implies liveness — the cancel path
    // invalidates on an id match — so a valid head needs no
    // slot-generation re-check here.
    if (calHeadValid_)
        return &calHead_;
    calHeadValid_ = scanCalendar(calHead_);
    return calHeadValid_ ? &calHead_ : nullptr;
}

bool
EventQueue::scanCalendar(Entry &out)
{
    bool found = false;
    // 1. The bucket under the cursor (sorted, O(1) head).
    Wheel &w0 = wheels_[0];
    unsigned curIdx = static_cast<unsigned>(wheelNow_ >> Shift0) &
                      (BucketsPerLevel - 1);
    if (w0.occ & (std::uint64_t(1) << curIdx)) {
        auto &v = w0.b[curIdx];
        if (curSorted_) {
            while (curPos_ < v.size() && !liveEntry(v[curPos_])) {
                ++curPos_;
                --stale_;
            }
            if (curPos_ < v.size()) {
                out = v[curPos_];
                return true;
            }
        } else {
            for (const Entry &e : v) {
                if (!liveEntry(e))
                    continue;
                if (!found || Lt{}(e, out)) {
                    out = e;
                    found = true;
                }
            }
            if (found)
                return true;
            stale_ -= v.size();
        }
        // Exhausted (or all-stale leftovers): retire the bucket.
        v.clear();
        w0.occ &= ~(std::uint64_t(1) << curIdx);
        curSorted_ = false;
        curPos_ = 0;
    }
    // 2. Wheel levels, nearest first.  Live entries at level l are
    //    strictly after the consumption point and inside the same
    //    level-(l+1) bucket as wheelNow_, so bucket index order *is*
    //    time order and the first occupied bucket of the lowest
    //    occupied level holds the wheel minimum.  (Bits at or behind
    //    the current position can only be cancelled leftovers; the
    //    sweep reclaims them.)
    for (unsigned lvl = 0; lvl < NumLevels && !found; ++lvl) {
        Wheel &w = wheels_[lvl];
        if (!w.occ)
            continue;
        unsigned shift = Shift0 + LevelBits * lvl;
        unsigned pos = static_cast<unsigned>(wheelNow_ >> shift) &
                       (BucketsPerLevel - 1);
        std::uint64_t mask =
            pos + 1 >= BucketsPerLevel
                ? 0
                : w.occ & (~std::uint64_t(0) << (pos + 1));
        while (mask) {
            unsigned idx =
                static_cast<unsigned>(std::countr_zero(mask));
            mask &= mask - 1;
            auto &v = w.b[idx];
            for (const Entry &e : v) {
                if (!liveEntry(e))
                    continue;
                if (!found || Lt{}(e, out)) {
                    out = e;
                    found = true;
                }
            }
            if (found)
                break;
            // All-stale bucket: reclaim it on the way past.
            stale_ -= v.size();
            v.clear();
            w.occ &= ~(std::uint64_t(1) << idx);
        }
    }
    // 3. Overflow.  Entries that were beyond the horizon when
    //    scheduled may have come inside it since, so the overflow top
    //    competes with the wheel candidate instead of being assumed
    //    later.
    while (!overflow_.empty() && !liveEntry(overflow_.front())) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Gt{});
        overflow_.pop_back();
        --stale_;
    }
    if (!overflow_.empty() &&
        (!found || Lt{}(overflow_.front(), out))) {
        out = overflow_.front();
        found = true;
    }
    return found;
}

void
EventQueue::popCalendar(const Entry &head)
{
    calHeadValid_ = false;
    // Overflow-resident head pops straight off that heap.
    if (!overflow_.empty() && overflow_.front().id == head.id) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Gt{});
        overflow_.pop_back();
        return;
    }
    for (;;) {
        std::uint64_t x = (head.when >> Shift0) ^ (wheelNow_ >> Shift0);
        if (x == 0) {
            // head lives in the bucket under the cursor: sort on
            // first touch, then consume through curPos_.
            unsigned curIdx =
                static_cast<unsigned>(head.when >> Shift0) &
                (BucketsPerLevel - 1);
            auto &v = wheels_[0].b[curIdx];
            if (!curSorted_) {
                std::sort(v.begin(), v.end(), Lt{});
                curSorted_ = true;
                curPos_ = 0;
            }
            while (curPos_ < v.size() && !liveEntry(v[curPos_])) {
                ++curPos_;
                --stale_;
            }
            // head is the wheel minimum, so it is the first live entry.
            ++curPos_;
            if (curPos_ >= v.size()) {
                v.clear();
                wheels_[0].occ &= ~(std::uint64_t(1) << curIdx);
                curSorted_ = false;
                curPos_ = 0;
            } else if (liveEntry(v[curPos_])) {
                // Refresh the cached head without a rescan.
                calHead_ = v[curPos_];
                calHeadValid_ = true;
            }
            return;
        }
        unsigned lvl = (63u - static_cast<unsigned>(
                                  std::countl_zero(x))) /
                       LevelBits;
        if (lvl == 0) {
            // Enter head's bucket; nothing live precedes it (the scan
            // that produced `head` cleared everything earlier).
            wheelNow_ = head.when & ~((Tick(1) << Shift0) - 1);
            curSorted_ = false;
            curPos_ = 0;
            continue;
        }
        // Advance into head's higher-level bucket and scatter it one
        // step down; placement of the scattered entries is relative
        // to the new wheelNow_, so they land at levels below `lvl`.
        unsigned shift = Shift0 + LevelBits * lvl;
        unsigned idx = static_cast<unsigned>(head.when >> shift) &
                       (BucketsPerLevel - 1);
        Wheel &w = wheels_[lvl];
        wheelNow_ = (head.when >> shift) << shift;
        curSorted_ = false;
        curPos_ = 0;
        auto &v = w.b[idx];
        for (const Entry &e : v) {
            if (liveEntry(e)) {
                placeCalendar(e);  // touches only levels < lvl
            } else {
                --stale_;  // scatter drops corpses for free
            }
        }
        v.clear();
        w.occ &= ~(std::uint64_t(1) << idx);
    }
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
    if (mode_ == KernelMode::Reference) {
        // Eager cancellation: remove the entry immediately.
        auto it = std::find_if(heap_.begin(), heap_.end(),
                               [&](const Entry &e) {
                                   return e.id == id;
                               });
        if (it != heap_.end())
            heap_.erase(it);
        releaseSlot(slot);
        --pending_;
        return true;
    }
    // Lazy cancellation: destroy the callback and recycle the slot now
    // (the generation bump marks the ordering entry stale); the entry
    // itself is skipped when the cursor or a heap top reaches it, or
    // reclaimed wholesale by the sweep.
    releaseSlot(slot);
    --pending_;
    ++stale_;
    if (calHeadValid_ && calHead_.id == id)
        calHeadValid_ = false;
    maybeSweep();
    return true;
}

void
EventQueue::maybeSweep()
{
    // After heavy cancel churn stale entries can dominate; one pass
    // over the wheels and the overflow heap is O(n) and keeps memory
    // bounded by the live event count.  Erasure preserves relative
    // order (and the heap is rebuilt), so pop order is unaffected.
    if (stale_ < 64 || stale_ * 2 < pending_ + stale_)
        return;
    sweep();
}

void
EventQueue::sweep()
{
    auto dead = [this](const Entry &e) { return !liveEntry(e); };
    for (Wheel &w : wheels_) {
        if (w.b.empty())
            continue;
        std::uint64_t occ = 0;
        for (unsigned i = 0; i < BucketsPerLevel; ++i) {
            auto &v = w.b[i];
            std::erase_if(v, dead);
            if (!v.empty())
                occ |= std::uint64_t(1) << i;
        }
        w.occ = occ;
    }
    // The consumed prefix of the cursor bucket was erased with the
    // corpses (popped slots are dead too), and erase_if keeps the
    // remaining live region sorted, so the cursor restarts at 0.
    curPos_ = 0;
    std::erase_if(overflow_, dead);
    std::make_heap(overflow_.begin(), overflow_.end(), Gt{});
    stale_ = 0;
    // calHead_ is a value copy of a live entry; it stays the minimum.
}

bool
EventQueue::step()
{
    Entry e;
    if (mode_ == KernelMode::Reference) {
        if (heap_.empty())
            return false;
        e = heap_.back();
        heap_.pop_back();
    } else {
        const Entry *h = pending_ != 0 ? calendarHead() : nullptr;
        if (!h)
            return false;
        e = *h;
        popCalendar(e);
    }
    // Release the slot before invoking so the callback can freely
    // schedule new events (possibly reusing this slot) and so
    // cancelling the in-flight id is a no-op, as documented.
    EventCallback fn = std::move(slots_[entrySlot(e)].fn);
    releaseSlot(entrySlot(e));
    --pending_;
    now_ = e.when;
    fn();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    stopped_ = false;
    std::uint64_t executed = 0;
    if (mode_ == KernelMode::Reference) {
        while (!stopped_ && !heap_.empty() &&
               heap_.back().when <= limit) {
            Entry e = heap_.back();
            heap_.pop_back();
            EventCallback fn = std::move(slots_[entrySlot(e)].fn);
            releaseSlot(entrySlot(e));
            --pending_;
            now_ = e.when;
            fn();
            ++executed;
        }
    } else {
        while (!stopped_ && pending_ != 0) {
            const Entry e = *calendarHead();
            if (e.when > limit)
                break;
            popCalendar(e);
            EventCallback fn = std::move(slots_[entrySlot(e)].fn);
            releaseSlot(entrySlot(e));
            --pending_;
            now_ = e.when;
            fn();
            ++executed;
        }
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
    // Collect live entries, sort by execution order, then emit their
    // tags: the restore side re-schedules in this order with fresh
    // sequences, which reproduces every same-tick tie-break.
    std::vector<Entry> live;
    live.reserve(pending_);
    if (mode_ == KernelMode::Reference) {
        for (const Entry &e : heap_)
            live.push_back(e);
    } else {
        for (const Wheel &w : wheels_)
            for (const auto &v : w.b)
                for (const Entry &e : v)
                    if (liveEntry(e))
                        live.push_back(e);
        for (const Entry &e : overflow_)
            if (liveEntry(e))
                live.push_back(e);
    }
    std::sort(live.begin(), live.end(), Lt{});
    std::vector<PendingEvent> out;
    out.reserve(live.size());
    for (const Entry &e : live) {
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
    if (mode_ == KernelMode::Reference) {
        for (const Entry &e : heap_)
            releaseSlot(entrySlot(e));
        heap_.clear();
    } else {
        for (Wheel &w : wheels_) {
            for (auto &v : w.b) {
                for (const Entry &e : v)
                    if (liveEntry(e))
                        releaseSlot(entrySlot(e));
                v.clear();
            }
            w.occ = 0;
        }
        for (const Entry &e : overflow_)
            if (liveEntry(e))
                releaseSlot(entrySlot(e));
        overflow_.clear();
        curPos_ = 0;
        curSorted_ = false;
        calHeadValid_ = false;
    }
    pending_ = 0;
    stale_ = 0;
}

void
EventQueue::setNow(Tick t)
{
    if (pending_ != 0)
        panic("EventQueue::setNow with %zu events pending", pending_);
    if (t < now_)
        panic("EventQueue::setNow moving backwards (%llu -> %llu)",
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(t));
    if (mode_ == KernelMode::Fast && stale_ != 0)
        sweep();  // leftover corpses would sit behind the new anchor
    now_ = t;
    wheelNow_ = t;
    curPos_ = 0;
    curSorted_ = false;
    calHeadValid_ = false;
}

} // namespace memscale
