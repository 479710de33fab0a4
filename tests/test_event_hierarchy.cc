/**
 * @file
 * Edge cases of the event kernel's sorted event array that the basic
 * kernel suite (test_sim) does not reach: far-future events more than
 * 2^48 ticks out interleaving with near ones, cancel-then-reschedule
 * across tick ranges many orders of magnitude apart, same-tick FIFO
 * across channel and core tags, exportPending/restore byte-identity,
 * and mirrored fuzzing of the Fast kernel against the Reference
 * oracle, both with everything scheduled up front and with callbacks
 * that schedule and cancel while the queue runs.
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

/** A far-future distance: 2^48 ticks, ~4.7 simulated minutes. */
constexpr Tick kHorizon = Tick(1) << 48;

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
    // Events more than 2^48 ticks out must still interleave correctly
    // with near events as the clock advances to meet them, whatever
    // their tag kind.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick whens[] = {
        10,           20,           (Tick(1) << 30),
        kHorizon - 1, kHorizon + 5, kHorizon + 10,
        kHorizon + 50, kHorizon + 90, (Tick(1) << 49),
        (Tick(1) << 49) + 1,
    };
    // Schedule in scrambled order so the insert point, not insertion
    // order, is what gets tested; odd positions carry channel tags.
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
    // After consuming past the first far event the clock has jumped
    // more than 2^48 ticks; fresh near *and* far events scheduled
    // from the advanced clock must still order globally.
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
    eq.schedule(base + kHorizon + 7, rec);   // far again
    eq.schedule(base + 1, rec);
    eq.schedule(base + (Tick(1) << 20), rec);
    eq.runUntil();
    EXPECT_EQ(fired, (std::vector<Tick>{base + 1, base + 3,
                                        base + (Tick(1) << 20),
                                        base + kHorizon + 7}));
}

TEST(EventHierarchy, CancelThenRescheduleAcrossBuckets)
{
    // Kill an event at one tick, reschedule the same logical work at
    // a tick orders of magnitude away, or earlier than the cancelled
    // one (alternating core and channel tags); only the replacement
    // may fire and the dead id must stay dead (generation check).
    EventQueue eq;
    int fired = 0;
    const Tick spots[] = {
        100,                      // a few ns out
        (Tick(1) << 13) + 3,      // ~8 ns
        (Tick(1) << 25),          // ~30 us
        (Tick(1) << 44),          // ~17 s
        kHorizon + 1,             // past 2^48 ticks
        kHorizon + 2,             // past 2^48, channel tag
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
    // exportPending() promises exact execution order for near and
    // far events alike.  Label every event through tag.a and check
    // the exported label sequence against the order the events
    // actually fire in.
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
    // Round-trip a queue with near and far channel- and core-tagged
    // events through export -> clear -> setNow -> re-schedule; the
    // second export must be byte-identical, including after a cancel
    // (a cancelled event must not leak into the export).
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
    // The same schedule executed against the Fast kernel and the
    // Reference oracle must export the same pending list — export
    // order is defined by (when, class, seq), not by how either
    // kernel found its insert points.
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
    // biased toward channel traffic and 2^12-aligned ticks; firing
    // sequences must match exactly.
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
            if (rng() % 8 == 0)         // 2^12-aligned: more ties
                when &= ~Tick(0xfff);
            if (rng() % 16 == 0)        // or past 2^48 ticks out
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

namespace
{

/**
 * One side of the mirrored live fuzz: a kernel plus the RNG and logs
 * its callbacks drive.  Both sides start from one seed, so they make
 * the same choices for exactly as long as they fire the same events
 * in the same order.
 */
struct LiveFuzzSide
{
    LiveFuzzSide(KernelMode mode, std::uint64_t seed)
        : eq(mode), rng(seed)
    {}

    static constexpr std::uint64_t CancelMark = std::uint64_t(1) << 63;

    EventQueue eq;
    std::mt19937_64 rng;
    std::vector<EventId> ids;  ///< by label
    /** Fired labels, and each cancel as CancelMark | victim << 1 | ok. */
    std::vector<std::uint64_t> log;
    int budget = 0;            ///< schedules left for callbacks

    /** Schedule one event: at now, near, 2^12-2^18 out, or past 2^48. */
    void
    spawn()
    {
        const std::uint64_t label = ids.size();
        Tick when = eq.now();
        switch (rng() % 8) {
          case 0:
          case 1:
            break;
          case 2:
          case 3:
            when += rng() % 64;
            break;
          case 7:
            when += kHorizon + rng() % (Tick(1) << 20);
            break;
          default:
            when += (Tick(1) << (12 + rng() % 7)) + rng() % 4096;
            break;
        }
        const auto cls = static_cast<EventClass>(rng() % 3);
        const EventTag tag =
            label % 2 ? chanTag(static_cast<std::uint32_t>(rng() % 8),
                                label)
                      : coreTag(label);
        ids.push_back(eq.schedule(when, [this, label] { fire(label); },
                                  cls, tag));
    }

    /** Cancel `victim` and log the outcome. */
    bool
    cancel(std::uint64_t victim)
    {
        const bool ok = eq.cancel(ids[victim]);
        log.push_back(CancelMark | (victim << 1) | (ok ? 1 : 0));
        return ok;
    }

    void
    fire(std::uint64_t label)
    {
        log.push_back(label);
        for (unsigned k = rng() % 3; k > 0 && budget > 0; --k, --budget)
            spawn();
        switch (rng() % 6) {
          case 0:  // the in-flight id: always a no-op
            EXPECT_FALSE(cancel(label));
            break;
          case 1:
          case 2:  // a recent id, most likely still pending
            cancel(ids.size() - 1 - rng() % std::min<std::size_t>(
                                            ids.size(), 32));
            break;
          case 3:  // any id: mostly already fired
            cancel(rng() % ids.size());
            break;
          default:
            break;
        }
    }
};

} // namespace

TEST(EventHierarchy, MirroredLiveFuzzAgainstReference)
{
    // Callbacks schedule at now in every class, near, 2^12-2^18 ticks
    // out (the deltas the simulator produces) and past 2^48, and
    // cancel pending, in-flight and already-fired ids while the queue
    // runs under interleaved runUntil(limit) horizons.  Firing order,
    // cancel results, the clock and exportPending() must match the
    // Reference oracle after every horizon.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        LiveFuzzSide fast(KernelMode::Fast, seed);
        LiveFuzzSide ref(KernelMode::Reference, seed);
        std::mt19937_64 drive(seed * 7919);
        for (LiveFuzzSide *side : {&fast, &ref}) {
            side->budget = 3000;
            for (int i = 0; i < 40; ++i)
                side->spawn();
        }
        int horizons = 0;
        while (!fast.eq.empty() || !ref.eq.empty()) {
            ASSERT_LT(++horizons, 100000) << "seed " << seed;
            const Tick now = fast.eq.now();
            const unsigned pick = drive() % 16;
            const Tick limit =
                pick < 2    ? now  // only events due right now
                : pick < 8  ? now + drive() % (Tick(1) << 14)
                : pick < 13 ? now + drive() % (Tick(1) << 18)
                : pick < 15 ? now + 2 * kHorizon
                            : MaxTick;
            fast.eq.runUntil(limit);
            ref.eq.runUntil(limit);
            ASSERT_EQ(fast.log, ref.log) << "seed " << seed;
            ASSERT_EQ(fast.eq.now(), ref.eq.now()) << "seed " << seed;
            ASSERT_EQ(fast.eq.pending(), ref.eq.pending());
            const auto a = fast.eq.exportPending();
            const auto b = ref.eq.exportPending();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i)
                ASSERT_TRUE(samePending(a[i], b[i]))
                    << "seed " << seed << " position " << i;
            // Between horizons: cancel from outside, or reseed a
            // drained queue while budget remains.
            if (drive() % 2 == 0) {
                const std::uint64_t victim = drive() % fast.ids.size();
                fast.cancel(victim);
                ref.cancel(victim);
            }
            if (fast.eq.empty() && fast.budget > 0) {
                for (LiveFuzzSide *side : {&fast, &ref}) {
                    side->budget -= 20;
                    for (int i = 0; i < 20; ++i)
                        side->spawn();
                }
            }
        }
        EXPECT_EQ(fast.log, ref.log) << "seed " << seed;
        EXPECT_GT(fast.ids.size(), 1000u) << "seed " << seed;
    }
}
