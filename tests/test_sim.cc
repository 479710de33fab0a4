/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick
 * priority classes, cancellation, run limits, stop().
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"

using namespace memscale;

TEST(EventQueue, OrdersByTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PriorityClasses)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(2); }, EventClass::Sample);
    eq.schedule(50, [&] { order.push_back(1); }, EventClass::Policy);
    eq.schedule(50, [&] { order.push_back(0); }, EventClass::Hardware);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, Cancel)
{
    EventQueue eq;
    int fired = 0;
    EventId id = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id + 100));
    eq.runUntil();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelFromEvent)
{
    EventQueue eq;
    int fired = 0;
    EventId victim = eq.schedule(20, [&] { fired += 10; });
    eq.schedule(10, [&] { eq.cancel(victim); ++fired; });
    eq.runUntil();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    // Events exactly at the limit run.
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingFromEvents)
{
    EventQueue eq;
    std::vector<Tick> times;
    std::function<void()> chain = [&] {
        times.push_back(eq.now());
        if (times.size() < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil();
    EXPECT_EQ(times, (std::vector<Tick>{0, 7, 14, 21, 28}));
}

TEST(EventQueue, Stop)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.stop();
    });
    eq.schedule(20, [&] { ++fired; });
    eq.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, AdvancesToLimitWhenDrained)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, PendingCount)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EventId a = eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StepSkipsCancelledTop)
{
    // Regression: a cancelled event that was next in line must neither
    // fire nor consume a step(), and step() must not report work on a
    // queue whose only events are cancelled.
    EventQueue eq;
    std::vector<int> order;
    EventId a = eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.cancel(a));
    EXPECT_TRUE(eq.step());  // runs the tick-20 event, not the cancelled one
    EXPECT_EQ(order, (std::vector<int>{2}));
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StepOnAllCancelled)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(eq.schedule(static_cast<Tick>(10 + i), [] {
            FAIL() << "cancelled event fired";
        }));
    for (EventId id : ids)
        EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, PendingExactAfterCancelChurn)
{
    // Heavy interleaved schedule/cancel: pending() must stay exact
    // (it used to drift when cancelled entries lingered in the heap).
    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<EventId> ids;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i)
            ids.push_back(
                eq.schedule(static_cast<Tick>(1000 + round * 40 + i),
                            [&fired] { ++fired; }));
        // Cancel three quarters of this round's events.
        for (std::size_t k = ids.size() - 40; k < ids.size(); ++k) {
            if (k % 4 != 0)
                EXPECT_TRUE(eq.cancel(ids[k]));
        }
    }
    EXPECT_EQ(eq.pending(), 50u * 10u);
    eq.runUntil();
    EXPECT_EQ(fired, 50u * 10u);
    EXPECT_EQ(eq.pending(), 0u);
    // Double-cancel of long-dead ids stays a no-op.
    for (EventId id : ids)
        EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot)
{
    // After an event fires (or is cancelled), its slab slot is
    // recycled with a bumped generation: the old id must not be able
    // to kill the new occupant.
    EventQueue eq;
    EventId a = eq.schedule(10, [] {});
    eq.runUntil();
    int fired = 0;
    EventId b = eq.schedule(20, [&] { ++fired; });
    // Same slot, different generation.
    EXPECT_NE(a, b);
    EXPECT_EQ(a & 0xffffffffull, b & 0xffffffffull);
    EXPECT_FALSE(eq.cancel(a));
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidId)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(InvalidEventId));
    EXPECT_FALSE(eq.cancel(~0ull));  // out-of-range slot
}

TEST(EventQueue, CancelDestroysCaptureImmediately)
{
    // cancel() promises the callback's captured resources die right
    // away.
    EventQueue eq;
    auto token = std::make_shared<int>(5);
    std::weak_ptr<int> watch = token;
    EventId id = eq.schedule(10, [t = std::move(token)] { (void)*t; });
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, ScheduleInsideCallbackReusesSlots)
{
    // A self-rescheduling chain must recycle a single slot without
    // unbounded slab growth and with fresh ids every hop.
    EventQueue eq;
    int hops = 0;
    EventId last = InvalidEventId;
    std::function<void()> chain = [&] {
        ++hops;
        if (hops < 1000) {
            EventId id = eq.scheduleIn(3, chain);
            EXPECT_NE(id, last);
            last = id;
        }
    };
    eq.schedule(0, chain);
    eq.runUntil();
    EXPECT_EQ(hops, 1000);
}

TEST(EventCallback, SmallCapturesStoredInline)
{
    // The whole point of the SBO callback: typical simulator captures
    // (a couple of pointers/integers) must not heap-allocate.
    struct Small
    {
        void *a, *b;
        std::uint64_t c;
        void operator()() {}
    };
    EXPECT_TRUE(EventCallback::storedInline<Small>());

    struct Big
    {
        std::array<char, 128> blob;
        void operator()() {}
    };
    EXPECT_FALSE(EventCallback::storedInline<Big>());

    // Both still behave identically.
    int hits = 0;
    EventCallback small([&hits] { ++hits; });
    EventCallback big([&hits, pad = std::array<char, 128>{}] {
        ++hits;
        (void)pad;
    });
    small();
    big();
    EXPECT_EQ(hits, 2);
}

TEST(EventCallback, MoveTransfersOwnership)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventCallback a([t = std::move(token)] { (void)*t; });
    EventCallback b(std::move(a));
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
    EXPECT_FALSE(watch.expired());
    b = EventCallback();
    EXPECT_TRUE(watch.expired());
}
