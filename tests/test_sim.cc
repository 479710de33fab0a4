/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick
 * priority classes, run limits, stop().
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
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
    // A std::function is not trivially copyable, so events schedule a
    // pointer-sized closure that calls it.
    std::function<void()> chain;
    auto hop = [&chain] { chain(); };
    chain = [&] {
        times.push_back(eq.now());
        if (times.size() < 5)
            eq.scheduleIn(7, hop);
    };
    eq.schedule(0, hop);
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
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ScheduleInsideCallbackReusesSlots)
{
    // A self-rescheduling chain reuses the slot its own event just
    // released, so the slab never grows past one slot; every hop runs
    // once, at the tick it asked for.
    EventQueue eq;
    int hops = 0;
    std::function<void()> chain;
    auto hop = [&chain] { chain(); };
    chain = [&] {
        ++hops;
        EXPECT_EQ(eq.now(), static_cast<Tick>(3 * (hops - 1)));
        EXPECT_EQ(eq.pending(), 0u);
        if (hops < 1000)
            eq.scheduleIn(3, hop);
        EXPECT_EQ(eq.slabSize(), 1u);
    };
    eq.schedule(0, hop);
    eq.runUntil();
    EXPECT_EQ(hops, 1000);
    EXPECT_EQ(eq.slabSize(), 1u);
}

TEST(EventCallback, AcceptsOnlyPlainCaptures)
{
    // Typical simulator captures (a couple of pointers/integers) fit
    // the buffer; anything that would need a heap slot, a destructor
    // or a real copy is refused at compile time.
    struct Small
    {
        void *a, *b;
        std::uint64_t c;
        void operator()() {}
    };
    struct Big
    {
        std::array<char, 128> blob;
        void operator()() {}
    };
    auto owning = [t = std::make_shared<int>(1)] { (void)*t; };
    static_assert(EventCallback::accepts<Small>);
    static_assert(!EventCallback::accepts<Big>);
    static_assert(!EventCallback::accepts<decltype(owning)>);
    static_assert(!EventCallback::accepts<std::function<void()>>);

    int hits = 0;
    EventCallback small([&hits] { ++hits; });
    small();
    EXPECT_EQ(hits, 1);
}

TEST(EventCallback, MoveTransfersTheCallable)
{
    int hits = 0;
    EventCallback a([&hits] { ++hits; });
    EventCallback b(std::move(a));
    EXPECT_FALSE(a);
    EXPECT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
    a = std::move(b);
    EXPECT_FALSE(b);
    a();
    EXPECT_EQ(hits, 2);
    a.reset();
    EXPECT_FALSE(a);
}
