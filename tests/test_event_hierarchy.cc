/**
 * @file
 * Edge cases of the hierarchical calendar queue (timing wheel plus
 * overflow heap) that the basic kernel suite (test_sim) does not
 * reach: far-future events beyond the calendar horizon crossing back
 * in as the wheel rolls over, cancel-then-reschedule across bucket
 * and level boundaries, same-tick FIFO across channel and core tags,
 * and exportPending/restore byte-identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "sim/event_kinds.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

/**
 * Tag helpers: a checkpointable channel-local tag or a core tag.  `a`
 * carries a caller chosen label so exports can be matched against
 * execution order.
 */
EventTag
chanTag(std::uint32_t owner, std::uint64_t label)
{
    return EventTag{EvChanBurstDone, owner, label, 0};
}

EventTag
coreTag(std::uint64_t label)
{
    return EventTag{EvCoreIssueMiss, 0, label, 0};
}

/** The calendar horizon: 6 levels of 64 buckets, 2^12-tick level 0. */
constexpr Tick kHorizon = Tick(1) << (12 + 6 * 6);

bool
samePending(const PendingEvent &a, const PendingEvent &b)
{
    return a.when == b.when && a.cls == b.cls &&
           a.tag.kind == b.tag.kind && a.tag.owner == b.tag.owner &&
           a.tag.a == b.tag.a && a.tag.b == b.tag.b;
}

} // namespace

TEST(EventHierarchy, FarFutureBeyondHorizonFiresInOrder)
{
    // Events past the wheel's span land in the overflow heap and must
    // still interleave correctly with near events as the wheel rolls
    // forward to meet them, whatever their tag kind.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick whens[] = {
        10,           20,           (Tick(1) << 30),
        kHorizon - 1, kHorizon + 5, kHorizon + 10,
        kHorizon + 50, kHorizon + 90, (Tick(1) << 49),
        (Tick(1) << 49) + 1,
    };
    // Schedule in scrambled order so placement, not insertion, is
    // what gets tested; odd positions carry channel tags.
    for (int i : {5, 0, 3, 9, 6, 1, 8, 4, 7, 2})
        eq.schedule(whens[i], [&fired, &eq] { fired.push_back(eq.now()); },
                    EventClass::Hardware,
                    i % 2 ? chanTag(2, i) : coreTag(i));
    eq.runUntil();
    std::vector<Tick> want(std::begin(whens), std::end(whens));
    EXPECT_EQ(fired, want);
    EXPECT_TRUE(eq.empty());
}

TEST(EventHierarchy, RolloverThenRescheduleFromAdvancedClock)
{
    // After consuming past the first horizon the wheel's consumption
    // point has rolled far forward; fresh near *and* far events
    // scheduled from the advanced clock must still order globally.
    EventQueue eq;
    std::vector<Tick> fired;
    auto rec = [&fired, &eq] { fired.push_back(eq.now()); };
    eq.schedule(5, rec);
    eq.schedule(kHorizon + 100, rec);
    eq.runUntil();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(eq.now(), kHorizon + 100);

    fired.clear();
    const Tick base = eq.now();
    eq.schedule(base + 3, rec);
    eq.schedule(base + kHorizon + 7, rec);   // overflow again
    eq.schedule(base + 1, rec);
    eq.schedule(base + (Tick(1) << 20), rec);
    eq.runUntil();
    EXPECT_EQ(fired, (std::vector<Tick>{base + 1, base + 3,
                                        base + (Tick(1) << 20),
                                        base + kHorizon + 7}));
}

TEST(EventHierarchy, CancelThenRescheduleAcrossBuckets)
{
    // Kill an event in one calendar bucket, reschedule the same
    // logical work in another bucket/level, or earlier than the
    // corpse (alternating core and channel tags); only the
    // replacement may fire and the dead id must stay dead
    // (generation check).
    EventQueue eq;
    int fired = 0;
    const Tick spots[] = {
        100,                      // level 0
        (Tick(1) << 13) + 3,      // next L0 epoch
        (Tick(1) << 25),          // mid level
        (Tick(1) << 44),          // top level
        kHorizon + 1,             // overflow
        kHorizon + 2,             // overflow, channel tag
        50,                       // back before the first spot
    };
    auto tagAt = [](std::size_t i) {
        return i % 2 ? chanTag(static_cast<std::uint32_t>(i), i)
                     : coreTag(i);
    };
    EventId id = eq.schedule(spots[0], [&] { ++fired; },
                             EventClass::Hardware, tagAt(0));
    for (std::size_t i = 1; i < std::size(spots); ++i) {
        EXPECT_TRUE(eq.cancel(id));
        EXPECT_FALSE(eq.cancel(id));     // double-cancel is a no-op
        id = eq.schedule(spots[i], [&] { ++fired; },
                         EventClass::Hardware, tagAt(i));
        EXPECT_EQ(eq.pending(), 1u);
    }
    const EventId last = id;
    eq.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), spots[std::size(spots) - 1]);
    EXPECT_FALSE(eq.cancel(last));       // already fired
}

TEST(EventHierarchy, SameTickFifoAcrossTagKinds)
{
    // Five events at one tick, channel and core tags interleaved:
    // insertion order must survive exactly.
    EventQueue eq;
    std::vector<int> order;
    auto push = [&order](int i) { return [&order, i] { order.push_back(i); }; };
    eq.schedule(1000, push(0), EventClass::Hardware, chanTag(3, 0));
    eq.schedule(1000, push(1), EventClass::Hardware, coreTag(0));
    eq.schedule(1000, push(2), EventClass::Hardware, chanTag(7, 0));
    eq.schedule(1000, push(3), EventClass::Hardware, chanTag(66, 0));
    eq.schedule(1000, push(4), EventClass::Hardware, coreTag(0));
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventHierarchy, SameTickClassBeatsSeq)
{
    // Priority class outranks insertion order: a Hardware channel
    // event inserted last still runs before earlier-inserted
    // Policy/Sample core ones.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(500, [&] { order.push_back(2); }, EventClass::Sample,
                coreTag(0));
    eq.schedule(500, [&] { order.push_back(1); }, EventClass::Policy,
                coreTag(0));
    eq.schedule(500, [&] { order.push_back(0); }, EventClass::Hardware,
                chanTag(1, 0));
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventHierarchy, ExportPendingMatchesExecutionOrder)
{
    // exportPending() promises exact execution order regardless of
    // whether an event sits in a wheel bucket or the overflow heap.
    // Label every event through tag.a and check the exported label
    // sequence against the order the events actually fire in.
    EventQueue eq;
    std::vector<std::uint64_t> fired;
    std::uint64_t label = 0;
    auto sched = [&](Tick when, EventClass cls, EventTag tag) {
        tag.a = label;
        std::uint64_t l = label++;
        eq.schedule(when, [&fired, l] { fired.push_back(l); }, cls, tag);
    };
    sched(300, EventClass::Hardware, chanTag(0, 0));
    sched(100, EventClass::Sample, coreTag(0));
    sched(100, EventClass::Hardware, chanTag(5, 0));
    sched(kHorizon + 2, EventClass::Hardware, coreTag(0));
    sched(100, EventClass::Hardware, coreTag(0));
    sched(300, EventClass::Policy, coreTag(0));
    sched(200, EventClass::Hardware, chanTag(0, 0));

    std::vector<PendingEvent> exp = eq.exportPending();
    ASSERT_EQ(exp.size(), 7u);
    eq.runUntil();
    ASSERT_EQ(fired.size(), exp.size());
    for (std::size_t i = 0; i < exp.size(); ++i)
        EXPECT_EQ(exp[i].tag.a, fired[i]) << "position " << i;
}

TEST(EventHierarchy, ExportRestoreByteIdentity)
{
    // Round-trip a queue with channel- and core-tagged events in
    // calendar buckets and overflow through export -> clear -> setNow
    // -> re-schedule; the second export must be byte-identical,
    // including after a cancel has left a corpse in a bucket (stale
    // entries must not leak into the export).
    EventQueue eq;
    auto noop = [] {};
    eq.schedule(40, noop, EventClass::Hardware, chanTag(1, 11));
    eq.schedule(40, noop, EventClass::Hardware, chanTag(1, 12));
    EventId dead = eq.schedule(50, noop, EventClass::Hardware,
                               chanTag(1, 13));
    eq.schedule(60, noop, EventClass::Hardware, chanTag(9, 14));
    eq.schedule(25, noop, EventClass::Policy, coreTag(15));
    eq.schedule(kHorizon + 9, noop, EventClass::Hardware, coreTag(16));
    eq.schedule(25, noop, EventClass::Sample, coreTag(17));
    EXPECT_TRUE(eq.cancel(dead));

    const std::vector<PendingEvent> before = eq.exportPending();
    ASSERT_EQ(before.size(), 6u);

    // Restore path: drop everything, jump the clock, re-schedule the
    // saved events in export order (as snapshot/restore does).
    eq.clearPending();
    EXPECT_TRUE(eq.empty());
    eq.setNow(5);
    for (const PendingEvent &p : before)
        eq.schedule(p.when, noop, p.cls, p.tag);

    const std::vector<PendingEvent> after = eq.exportPending();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_TRUE(samePending(before[i], after[i]))
            << "position " << i;
    }
}

TEST(EventHierarchy, ExportIdenticalAcrossKernelModes)
{
    // The same schedule executed against the Fast calendar and the
    // Reference oracle must export the same pending list — export
    // order is defined by (when, class, seq), not by structure.
    EventQueue fast(KernelMode::Fast);
    EventQueue ref(KernelMode::Reference);
    auto noop = [] {};
    std::mt19937 rng(2026);
    for (int i = 0; i < 200; ++i) {
        const Tick when = rng() % 3 == 0 ? kHorizon + (rng() & 0xffff)
                                         : (rng() & 0xfffff);
        const auto cls = static_cast<EventClass>(rng() % 3);
        const EventTag tag = (rng() & 1)
                                 ? chanTag(rng() % 80, i)
                                 : coreTag(i);
        fast.schedule(when, noop, cls, tag);
        ref.schedule(when, noop, cls, tag);
    }
    const auto a = fast.exportPending();
    const auto b = ref.exportPending();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(samePending(a[i], b[i])) << "position " << i;
}

TEST(EventHierarchy, MirroredFuzzAgainstReference)
{
    // Randomized schedule/cancel churn mirrored into both kernels,
    // biased toward channel traffic and bucket-boundary ticks;
    // firing sequences must match exactly.
    std::mt19937 rng(777);
    for (int round = 0; round < 5; ++round) {
        EventQueue fast(KernelMode::Fast);
        EventQueue ref(KernelMode::Reference);
        std::vector<std::uint64_t> ffired, rfired;
        std::vector<std::pair<EventId, EventId>> ids;
        std::uint64_t label = 0;
        for (int i = 0; i < 400; ++i) {
            if (!ids.empty() && rng() % 4 == 0) {
                const auto [fa, ra] =
                    ids[rng() % ids.size()];
                EXPECT_EQ(fast.cancel(fa), ref.cancel(ra));
                continue;
            }
            Tick when = rng() & 0x3fffff;
            if (rng() % 8 == 0)         // sit exactly on a bucket edge
                when &= ~Tick(0xfff);
            if (rng() % 16 == 0)        // or beyond the horizon
                when += kHorizon;
            const auto cls = static_cast<EventClass>(rng() % 3);
            const EventTag tag = (rng() % 3) ? chanTag(rng() % 100, 0)
                                             : EventTag{};
            const std::uint64_t l = label++;
            ids.emplace_back(
                fast.schedule(when, [&ffired, l] { ffired.push_back(l); },
                              cls, tag),
                ref.schedule(when, [&rfired, l] { rfired.push_back(l); },
                             cls, tag));
        }
        EXPECT_EQ(fast.pending(), ref.pending());
        fast.runUntil();
        ref.runUntil();
        EXPECT_EQ(ffired, rfired) << "round " << round;
        EXPECT_EQ(fast.now(), ref.now()) << "round " << round;
    }
}
