/**
 * @file
 * Edge cases of the event kernel's sorted event array that the basic
 * kernel suite (test_sim) does not reach: far-future events more than
 * 2^48 ticks out interleaving with near ones, same-tick FIFO across
 * channel and core tags, exportPending/restore byte-identity, and
 * mirrored fuzzing of the kernel against ReferenceQueue
 * (reference_queue.hh), an independent model of its contract, both
 * with everything scheduled up front and with callbacks that
 * schedule and stop while the queue runs.  The live fuzz also feeds
 * scheduleLast()'s lane, in and out of order, and a refresh-like chain
 * on the lane must export, restore and fire exactly as it does
 * through schedule() alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "common/rng.hh"
#include "reference_queue.hh"
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

/** Field-wise equality of two exported events, from either queue. */
template <typename A, typename B>
bool
samePending(const A &a, const B &b)
{
    return a.when == b.when &&
           static_cast<unsigned>(a.cls) == static_cast<unsigned>(b.cls) &&
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
    // second export must be byte-identical.
    EventQueue eq;
    auto noop = [] {};
    eq.schedule(40, noop, EventClass::Hardware, chanTag(1, 11));
    eq.schedule(40, noop, EventClass::Hardware, chanTag(1, 12));
    eq.schedule(60, noop, EventClass::Hardware, chanTag(9, 14));
    eq.schedule(25, noop, EventClass::Policy, coreTag(15));
    eq.schedule(kHorizon + 9, noop, EventClass::Hardware, coreTag(16));
    eq.schedule(25, noop, EventClass::Sample, coreTag(17));

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

TEST(EventHierarchy, ExportMatchesReference)
{
    // The same schedule given to the kernel and to the reference model
    // must export the same pending list: export order is defined by
    // (when, class, seq), not by how the kernel keeps its array.
    EventQueue eq;
    ReferenceQueue ref;
    auto noop = [] {};
    std::mt19937 rng(2026);
    for (int i = 0; i < 200; ++i) {
        const Tick when = rng() % 3 == 0 ? kHorizon + (rng() & 0xffff)
                                         : (rng() & 0xfffff);
        const auto cls = static_cast<EventClass>(rng() % 3);
        const EventTag tag = (rng() & 1)
                                 ? chanTag(rng() % 80, i)
                                 : coreTag(i);
        eq.schedule(when, noop, cls, tag);
        ref.schedule(when, noop, cls, tag);
    }
    const auto a = eq.exportPending();
    const auto b = ref.exportPending();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(samePending(a[i], b[i])) << "position " << i;
}

TEST(EventHierarchy, MirroredFuzzAgainstReference)
{
    // Randomized schedules mirrored into the kernel and the model,
    // biased toward channel traffic and 2^12-aligned ticks; firing
    // sequences must match exactly.
    std::mt19937 rng(777);
    for (int round = 0; round < 5; ++round) {
        EventQueue eq;
        ReferenceQueue ref;
        std::vector<std::uint64_t> efired, rfired;
        for (std::uint64_t l = 0; l < 400; ++l) {
            Tick when = rng() & 0x3fffff;
            if (rng() % 8 == 0)         // 2^12-aligned: more ties
                when &= ~Tick(0xfff);
            if (rng() % 16 == 0)        // or past 2^48 ticks out
                when += kHorizon;
            const auto cls = static_cast<EventClass>(rng() % 3);
            const EventTag tag = (rng() % 3) ? chanTag(rng() % 100, 0)
                                             : EventTag{};
            eq.schedule(when, [&efired, l] { efired.push_back(l); }, cls,
                        tag);
            ref.schedule(when, [&rfired, l] { rfired.push_back(l); }, cls,
                         tag);
        }
        EXPECT_EQ(eq.pending(), ref.pending());
        eq.runUntil();
        ref.runUntil();
        EXPECT_EQ(efired, rfired) << "round " << round;
        EXPECT_EQ(eq.now(), ref.now()) << "round " << round;
    }
}

namespace
{

/**
 * One side of the mirrored live fuzz: a queue (the kernel or the
 * model) plus the RNG and logs its callbacks drive.  Both sides start
 * from one seed, so they make the same choices for exactly as long as
 * they fire the same events in the same order.
 */
template <typename Queue>
struct LiveFuzzSide
{
    explicit LiveFuzzSide(std::uint64_t seed) : rng(seed) {}

    Queue eq;
    std::mt19937_64 rng;
    std::uint64_t spawned = 0;  ///< events scheduled, the next label
    std::vector<std::uint64_t> log;  ///< fired labels
    int budget = 0;            ///< schedules left for callbacks
    int stops = 0;             ///< callbacks that called stop()

    /**
     * Schedule one event: at now, near, 2^12-2^18 out, or past 2^48,
     * through schedule() or scheduleLast(); or one fixed period out
     * through scheduleLast(), as a refresh chain does.  The random
     * ticks make scheduleLast() fall back to the array as often as
     * they let it append to the lane.
     */
    void
    spawn()
    {
        const std::uint64_t label = spawned++;
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
        auto fn = [this, label] { fire(label); };
        switch (rng() % 4) {
          case 0:
          case 1:
            eq.schedule(when, fn, cls, tag);
            break;
          case 2:
            eq.scheduleLast(when, fn, cls, tag);
            break;
          default:
            eq.scheduleLast(eq.now() + (Tick(1) << 16), fn, cls, tag);
            break;
        }
    }

    void
    fire(std::uint64_t label)
    {
        log.push_back(label);
        for (unsigned k = rng() % 3; k > 0 && budget > 0; --k, --budget)
            spawn();
        // End the current runUntil() early, as System's done, horizon
        // and advance() stop events do.
        if (rng() % 16 == 0) {
            eq.stop();
            ++stops;
        }
    }
};

} // namespace

TEST(EventHierarchy, MirroredLiveFuzzAgainstReference)
{
    // Callbacks schedule at now in every class, near, 2^12-2^18 ticks
    // out (the deltas the simulator produces) and past 2^48, and
    // sometimes call stop() while the queue runs.  The driver
    // interleaves step() with runUntil(limit) horizons.  Firing order,
    // each call's return value, the clock, pending() and
    // exportPending() must match the reference model after every call.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        LiveFuzzSide<EventQueue> kern(seed);
        LiveFuzzSide<ReferenceQueue> ref(seed);
        std::mt19937_64 drive(seed * 7919);
        kern.budget = ref.budget = 3000;
        for (int i = 0; i < 40; ++i) {
            kern.spawn();
            ref.spawn();
        }
        int calls = 0;
        int steps = 0;
        while (!kern.eq.empty() || !ref.eq.empty()) {
            ASSERT_LT(++calls, 100000) << "seed " << seed;
            const Tick now = kern.eq.now();
            const unsigned pick = drive() % 20;
            if (pick >= 16) {
                ++steps;
                ASSERT_EQ(kern.eq.step(), ref.eq.step()) << "seed " << seed;
            } else {
                const Tick limit =
                    pick < 2    ? now  // only events due right now
                    : pick < 8  ? now + drive() % (Tick(1) << 14)
                    : pick < 13 ? now + drive() % (Tick(1) << 18)
                    : pick < 15 ? now + 2 * kHorizon
                                : MaxTick;
                ASSERT_EQ(kern.eq.runUntil(limit), ref.eq.runUntil(limit))
                    << "seed " << seed;
            }
            ASSERT_EQ(kern.log, ref.log) << "seed " << seed;
            ASSERT_EQ(kern.eq.now(), ref.eq.now()) << "seed " << seed;
            ASSERT_EQ(kern.eq.pending(), ref.eq.pending());
            const auto a = kern.eq.exportPending();
            const auto b = ref.eq.exportPending();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i)
                ASSERT_TRUE(samePending(a[i], b[i]))
                    << "seed " << seed << " position " << i;
            // Between calls: reseed a drained queue while budget
            // remains.
            if (kern.eq.empty() && kern.budget > 0) {
                kern.budget -= 20;
                ref.budget -= 20;
                for (int i = 0; i < 20; ++i) {
                    kern.spawn();
                    ref.spawn();
                }
            }
        }
        EXPECT_EQ(kern.log, ref.log) << "seed " << seed;
        EXPECT_EQ(kern.stops, ref.stops) << "seed " << seed;
        EXPECT_GT(kern.spawned, 1000u) << "seed " << seed;
        EXPECT_GT(kern.stops, 10) << "seed " << seed;
        EXPECT_GT(steps, 10) << "seed " << seed;
    }
}

namespace
{

/**
 * A queue running a refresh-like chain, eight links a fixed period
 * apart that each reschedule themselves one period ahead (through
 * scheduleLast() if `lane`, else schedule()), beside hold-model
 * traffic whose every event schedules a successor 2^12-2^18 ticks out.
 * Both stop after `budget` reschedules.  Every event logs its tag's
 * label as it fires.
 */
struct ChainSide
{
    static constexpr Tick kPeriod = Tick(1) << 17;

    EventQueue eq;
    bool lane = false;
    int budget = 4000;
    std::uint64_t draws = 0;
    std::vector<std::uint64_t> log;

    void
    start()
    {
        for (std::uint64_t i = 0; i < 8; ++i)
            link(kPeriod * (i + 1) / 9, i, false);
        for (std::uint64_t i = 0; i < 16; ++i)
            hop(100 + i);
    }

    EventCallback
    rebuild(const EventTag &tag)
    {
        if (tag.kind == EvChanRefreshTick)
            return [this, i = tag.a] { fireLink(i); };
        return [this, l = tag.a] { fireHop(l); };
    }

    void
    link(Tick when, std::uint64_t i, bool periodic)
    {
        const EventTag tag{EvChanRefreshTick, 0, i, 0};
        if (periodic && lane)
            eq.scheduleLast(when, rebuild(tag), EventClass::Hardware, tag);
        else
            eq.schedule(when, rebuild(tag), EventClass::Hardware, tag);
    }

    void
    hop(std::uint64_t label)
    {
        const Tick d =
            (Tick(1) << 12) + splitmix64(++draws) % (Tick(1) << 18);
        eq.schedule(eq.now() + d, rebuild(coreTag(label)),
                    EventClass::Hardware, coreTag(label));
    }

    void
    fireLink(std::uint64_t i)
    {
        log.push_back(i);
        if (--budget > 0)
            link(eq.now() + kPeriod, i, true);
    }

    void
    fireHop(std::uint64_t label)
    {
        log.push_back(label);
        if (--budget > 0)
            hop(label);
    }
};

} // namespace

TEST(EventHierarchy, LaneExportRestoreMatchesScheduleOnly)
{
    // The same run with the chain on the lane and with schedule()
    // only: mid-run, with lane entries pending, both export the same
    // list (sequences included); each restores into a fresh queue that
    // exports it unchanged; and every side, restored or not, fires the
    // same events in the same order to the end.
    ChainSide sides[2];
    sides[1].lane = true;
    for (ChainSide &s : sides) {
        s.start();
        s.eq.runUntil(ChainSide::kPeriod * 40 + 12345);
    }
    const std::vector<PendingEvent> a = sides[0].eq.exportPending();
    const std::vector<PendingEvent> b = sides[1].eq.exportPending();
    ASSERT_EQ(a.size(), 24u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(samePending(a[i], b[i])) << "position " << i;
        EXPECT_EQ(a[i].seq, b[i].seq) << "position " << i;
    }
    ASSERT_EQ(sides[0].log, sides[1].log);

    ChainSide restored[2];
    for (int k = 0; k < 2; ++k) {
        ChainSide &r = restored[k];
        r.lane = sides[k].lane;
        r.budget = sides[k].budget;
        r.draws = sides[k].draws;
        r.log = sides[k].log;
        r.eq.setNow(sides[k].eq.now());
        r.eq.setNextSeq(a.size() + 1);
        for (const PendingEvent &pe : k ? b : a)
            r.eq.restore(pe, r.rebuild(pe.tag));
        const std::vector<PendingEvent> again = r.eq.exportPending();
        ASSERT_EQ(again.size(), a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(samePending(again[i], a[i])) << "position " << i;
            EXPECT_EQ(again[i].seq, a[i].seq) << "position " << i;
        }
    }
    for (ChainSide &s : sides)
        s.eq.runUntil();
    for (ChainSide &r : restored)
        r.eq.runUntil();
    EXPECT_EQ(sides[1].log, sides[0].log);
    EXPECT_EQ(restored[0].log, sides[0].log);
    EXPECT_EQ(restored[1].log, sides[0].log);
    EXPECT_GT(sides[0].log.size(), 3000u);
}

TEST(EventHierarchy, LaneFallsBackOutOfOrder)
{
    // scheduleLast() in descending tick order, and at one tick across
    // classes: every entry after the first falls back to the array,
    // and the pops still follow (when, class, seq) against events
    // scheduled normally around them.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleLast(500, [&] { order.push_back(5); });
    eq.scheduleLast(300, [&] { order.push_back(3); });
    eq.schedule(300, [&] { order.push_back(4); });
    eq.scheduleLast(100, [&] { order.push_back(2); }, EventClass::Sample);
    eq.scheduleLast(100, [&] { order.push_back(1); }, EventClass::Policy);
    eq.schedule(100, [&] { order.push_back(0); });
    eq.scheduleLast(500, [&] { order.push_back(6); });
    EXPECT_EQ(eq.pending(), 7u);
    EXPECT_EQ(eq.runUntil(300), 5u);
    EXPECT_EQ(eq.pending(), 2u);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_TRUE(eq.empty());
}
