/**
 * @file
 * An independent model of the event kernel's contract, for tests.
 *
 * ReferenceQueue restates what sim/event_queue.hh promises and shares
 * none of its code: events sit in an ordered map keyed by
 * (when, class, seq) and callbacks are std::function.  The tests run
 * EventQueue and this model side by side on the same inputs and
 * compare firing order, the clock, pending() and exportPending().
 *
 * The contract it models:
 *  - events fire in (when, class, seq) order, seq counting schedules;
 *  - an event, once scheduled, runs (there is no cancellation); the
 *    in-flight event is gone before its callback runs;
 *  - runUntil(limit) runs every event due at or before `limit`, unless
 *    a callback calls stop(), in which case it returns right after
 *    that callback; otherwise it leaves the clock at `limit` (never at
 *    MaxTick) even if no event was due there;
 *  - step() runs the soonest event, if any;
 *  - exportPending() lists pending events in firing order, skipping
 *    EvEphemeral tags; an untagged (EvNone) event cannot be exported;
 *  - scheduleLast() is schedule(): the kernel's lane is an internal
 *    shortcut that changes no order.
 *
 * schedule() takes the class and tag by duck type (anything with an
 * integral value and kind/owner/a/b fields), so tests pass the same
 * EventClass and EventTag values to both queues.
 */

#ifndef MEMSCALE_TESTS_REFERENCE_QUEUE_HH
#define MEMSCALE_TESTS_REFERENCE_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/event_kinds.hh"

namespace memscale
{

class ReferenceQueue
{
  public:
    struct Tag
    {
        std::uint32_t kind = 0;
        std::uint32_t owner = 0;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
    };

    struct Pending
    {
        Tick when = 0;
        std::uint8_t cls = 0;
        Tag tag;
    };

    Tick now() const { return now_; }
    std::size_t pending() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    template <typename Cls = std::uint8_t, typename TagT = Tag>
    void
    schedule(Tick when, std::function<void()> fn, Cls cls = {},
             const TagT &tag = {})
    {
        if (when < now_)
            throw std::logic_error("ReferenceQueue: scheduled in the past");
        const Key key{when, static_cast<std::uint8_t>(cls), nextSeq_++};
        events_.emplace(key, Event{std::move(fn),
                                   Tag{tag.kind, tag.owner, tag.a, tag.b}});
    }

    template <typename Cls = std::uint8_t, typename TagT = Tag>
    void
    scheduleLast(Tick when, std::function<void()> fn, Cls cls = {},
                 const TagT &tag = {})
    {
        schedule(when, std::move(fn), cls, tag);
    }

    void stop() { stopped_ = true; }

    bool
    step()
    {
        if (events_.empty())
            return false;
        fireSoonest();
        return true;
    }

    std::uint64_t
    runUntil(Tick limit = MaxTick)
    {
        stopped_ = false;
        std::uint64_t ran = 0;
        for (;;) {
            if (stopped_)
                return ran;
            if (events_.empty() || whenOf(events_.begin()->first) > limit)
                break;
            fireSoonest();
            ++ran;
        }
        if (limit != MaxTick && limit > now_)
            now_ = limit;
        return ran;
    }

    std::vector<Pending>
    exportPending() const
    {
        std::vector<Pending> out;
        for (const auto &[key, ev] : events_) {
            if (ev.tag.kind == EvEphemeral)
                continue;
            if (ev.tag.kind == EvNone)
                throw std::logic_error("ReferenceQueue: untagged event");
            out.push_back({whenOf(key), std::get<1>(key), ev.tag});
        }
        return out;
    }

  private:
    /** (when, class, seq): std::tuple's order is the firing order. */
    using Key = std::tuple<Tick, std::uint8_t, std::uint64_t>;

    struct Event
    {
        std::function<void()> fn;
        Tag tag;
    };

    static Tick whenOf(const Key &k) { return std::get<0>(k); }

    void
    fireSoonest()
    {
        auto it = events_.begin();
        const Key key = it->first;
        std::function<void()> fn = std::move(it->second.fn);
        events_.erase(it);
        now_ = whenOf(key);
        fn();
    }

    std::map<Key, Event> events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    bool stopped_ = false;
};

} // namespace memscale

#endif // MEMSCALE_TESTS_REFERENCE_QUEUE_HH
