/**
 * @file
 * Request lifecycle under the RequestPool: slab recycling across a
 * full run (bounded capacity, zero leakage), a recycled request equal
 * to MemRequest{} field by field, slab indices that name their
 * requests across chunks and a restored layout, completion ordering
 * unchanged under heavy write-drain + FR-FCFS promotion, and channel
 * destruction with queued and in-flight pooled requests (ASan-clean).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "mem/request_pool.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

MemConfig
oneChannel(SchedulerPolicy sched = SchedulerPolicy::Fcfs)
{
    MemConfig cfg;
    cfg.numChannels = 1;
    cfg.scheduler = sched;
    return cfg;
}

Addr
at(const MemoryController &mc, std::uint32_t bank, std::uint64_t row,
   std::uint64_t col = 0)
{
    DecodedAddr d;
    d.bank = bank;
    d.row = row;
    d.column = col;
    return mc.addressMap().encode(d);
}

/**
 * Deterministic heavy traffic: reads and writebacks concentrated on
 * two banks so the write queue hits its drain threshold and FR-FCFS
 * finds promotable row hits.  Returns the read completion order as
 * (address, tick) pairs.
 */
std::vector<std::pair<Addr, Tick>>
runHeavyTraffic(SchedulerPolicy sched, std::uint64_t seed)
{
    EventQueue eq;
    MemConfig cfg = oneChannel(sched);
    MemoryController mc(eq, cfg);
    std::vector<std::pair<Addr, Tick>> order;
    FnClient client([&](Tick when, const MemRequest &req) {
        order.emplace_back(req.addr, when);
    });
    Rng rng(seed);
    Tick t = 0;
    for (int i = 0; i < 600; ++i) {
        t += rng.below(3) == 0 ? 0 : rng.below(nsToTick(40.0));
        std::uint32_t bank = rng.next() % 2;
        std::uint64_t row = rng.next() % 4;
        bool is_write = rng.chance(0.45);
        Addr a = at(mc, bank, row, rng.next() % 16);
        eq.schedule(t, [&, a, is_write] {
            if (is_write)
                mc.writeback(a, 0);
            else
                mc.read(a, 0, &client);
        });
    }
    eq.runUntil();
    EXPECT_EQ(mc.pending(), 0u);
    EXPECT_EQ(mc.requestPool().inUse(), 0u);
    McCounters c = mc.sampleCounters();
    EXPECT_GT(c.writes, 0u);
    if (sched == SchedulerPolicy::FrFcfs) {
        EXPECT_GT(c.rbhc, 0u);   // promotions actually exercised
    }
    return order;
}

} // namespace

TEST(RequestPool, AllocReleaseRoundTrip)
{
    RequestPool pool;
    EXPECT_EQ(pool.inUse(), 0u);
    MemRequest *a = pool.alloc();
    MemRequest *b = pool.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.inUse(), 2u);
    EXPECT_EQ(pool.capacity(), RequestPool::ChunkSize);
    a->addr = 0xdead;
    pool.release(a);
    // LIFO recycling hands the same slab slot back, zeroed.
    MemRequest *c = pool.alloc();
    EXPECT_EQ(c, a);
    EXPECT_EQ(c->addr, 0u);
    EXPECT_EQ(c->client, nullptr);
    pool.release(b);
    pool.release(c);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(RequestPool, RecycledRequestEqualsValueInitialised)
{
    // alloc() resets a recycled request field by field; every field,
    // the intrusive links included, must come back as MemRequest{}.
    // poolIndex belongs to the slot, not the request, and is left
    // alone (SlabIndexRoundTrips).
    RequestPool pool;
    MemRequest *r = pool.alloc();
    FnClient client([](Tick) {});
    r->addr = 0x1234'5678'9abcull;
    r->isWrite = true;
    r->core = 7;
    r->arrival = 11;
    r->loc.channel = 3;
    r->loc.rank = 1;
    r->loc.bank = 5;
    r->loc.row = 17;
    r->loc.column = 19;
    r->serviceStart = 23;
    r->dataReady = 29;
    r->burstStart = 31;
    r->burstEnd = 37;
    r->outcome = RowOutcome::Hit;
    r->sawPowerdownExit = true;
    r->bankBurstExtra = 41;
    r->client = &client;
    r->prev = r;
    r->next = r;
    pool.release(r);

    MemRequest *again = pool.alloc();
    ASSERT_EQ(again, r);
    const MemRequest want{};
    EXPECT_EQ(again->addr, want.addr);
    EXPECT_EQ(again->isWrite, want.isWrite);
    EXPECT_EQ(again->core, want.core);
    EXPECT_EQ(again->arrival, want.arrival);
    EXPECT_EQ(again->loc, want.loc);
    EXPECT_EQ(again->serviceStart, want.serviceStart);
    EXPECT_EQ(again->dataReady, want.dataReady);
    EXPECT_EQ(again->burstStart, want.burstStart);
    EXPECT_EQ(again->burstEnd, want.burstEnd);
    EXPECT_EQ(again->outcome, want.outcome);
    EXPECT_EQ(again->sawPowerdownExit, want.sawPowerdownExit);
    EXPECT_EQ(again->bankBurstExtra, want.bankBurstExtra);
    EXPECT_EQ(again->client, want.client);
    EXPECT_EQ(again->prev, want.prev);
    EXPECT_EQ(again->next, want.next);
    pool.release(again);
}

TEST(RequestPool, SlabGrowsPastOneChunk)
{
    RequestPool pool;
    std::vector<MemRequest *> live;
    for (std::size_t i = 0; i < 3 * RequestPool::ChunkSize + 1; ++i)
        live.push_back(pool.alloc());
    EXPECT_EQ(pool.inUse(), live.size());
    EXPECT_GE(pool.capacity(), live.size());
    for (MemRequest *r : live)
        pool.release(r);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(RequestPool, SlabIndexRoundTrips)
{
    // Every request's stored slab index names it, in all of at least
    // three chunks, before and after recycling and in a pool rebuilt
    // by restoreLayout().
    RequestPool pool;
    std::vector<MemRequest *> live;
    for (std::size_t i = 0; i < 3 * RequestPool::ChunkSize + 5; ++i)
        live.push_back(pool.alloc());
    ASSERT_GE(pool.capacity(), 4 * RequestPool::ChunkSize);
    std::vector<bool> seen(pool.capacity(), false);
    for (MemRequest *r : live) {
        const std::size_t idx = pool.indexOf(r);
        ASSERT_LT(idx, pool.capacity());
        EXPECT_FALSE(seen[idx]) << "index " << idx << " given twice";
        seen[idx] = true;
        EXPECT_EQ(pool.at(idx), r);
    }
    for (std::size_t i = 0; i < live.size(); i += 2)
        pool.release(live[i]);
    for (std::size_t i = 0; i < live.size(); i += 2) {
        live[i] = pool.alloc();
        EXPECT_EQ(pool.at(pool.indexOf(live[i])), live[i]);
    }

    RequestPool restored;
    const std::size_t cap = 4 * RequestPool::ChunkSize;
    std::vector<std::size_t> free_order;
    for (std::size_t i = cap; i-- > 0;)
        if (i % 3 == 0)
            free_order.push_back(i);
    restored.restoreLayout(cap, free_order);
    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_EQ(restored.indexOf(restored.at(i)), i);
    EXPECT_EQ(restored.freeListIndices(), free_order);
    for (std::size_t want : free_order) {
        MemRequest *r = restored.alloc();
        EXPECT_EQ(restored.indexOf(r), want);
        EXPECT_EQ(restored.at(want), r);
    }
}

TEST(RequestPool, RecyclesAcrossFullRun)
{
    // Waves of traffic through a controller: after the first wave has
    // sized the slab, later waves must recycle it without growth, and
    // every request must come home (inUse == 0) when traffic drains.
    EventQueue eq;
    MemConfig cfg = oneChannel();
    MemoryController mc(eq, cfg);
    FnClient client([](Tick) {});
    std::size_t settled_capacity = 0;
    for (int wave = 0; wave < 12; ++wave) {
        for (int i = 0; i < 48; ++i) {
            Addr a = at(mc, static_cast<std::uint32_t>(i % 8),
                        static_cast<std::uint64_t>(wave % 4), i % 16);
            if (i % 3 == 0)
                mc.writeback(a, 0);
            else
                mc.read(a, 0, &client);
        }
        eq.runUntil();
        EXPECT_EQ(mc.requestPool().inUse(), 0u) << "wave " << wave;
        if (wave == 0)
            settled_capacity = mc.requestPool().capacity();
        else
            EXPECT_EQ(mc.requestPool().capacity(), settled_capacity)
                << "slab grew after warm-up in wave " << wave;
    }
}

TEST(RequestPool, InUseTracksControllerPending)
{
    EventQueue eq;
    MemConfig cfg = oneChannel();
    MemoryController mc(eq, cfg);
    FnClient client([](Tick) {});
    EXPECT_EQ(mc.requestPool().inUse(), 0u);
    for (int i = 0; i < 20; ++i)
        mc.read(at(mc, static_cast<std::uint32_t>(i % 8), 1), 0,
                &client);
    mc.writeback(at(mc, 0, 9), 0);
    EXPECT_EQ(mc.requestPool().inUse(), 21u);
    EXPECT_EQ(mc.requestPool().inUse(), mc.pending());
    eq.runUntil();
    EXPECT_EQ(mc.requestPool().inUse(), 0u);
}

TEST(RequestPool, CompletionOrderDeterministicUnderDrainAndPromotion)
{
    // Identical traffic into fresh controllers must complete in the
    // identical (address, tick) order: pool recycling (same storage, new
    // identity) must not perturb FR-FCFS promotion or write drain.
    auto a = runHeavyTraffic(SchedulerPolicy::FrFcfs, 0xabcde);
    auto b = runHeavyTraffic(SchedulerPolicy::FrFcfs, 0xabcde);
    EXPECT_EQ(a, b);
    auto c = runHeavyTraffic(SchedulerPolicy::Fcfs, 0xabcde);
    EXPECT_EQ(c, runHeavyTraffic(SchedulerPolicy::Fcfs, 0xabcde));
}

TEST(RequestPool, FrFcfsPromotionOrderPreserved)
{
    // A(row 1), B(row 2), C(row 1) at one bank: FR-FCFS serves the
    // row-1 hit C before B — the intrusive-queue splice must reproduce
    // the deque-era completion order exactly.
    EventQueue eq;
    MemConfig cfg = oneChannel(SchedulerPolicy::FrFcfs);
    MemoryController mc(eq, cfg);
    std::vector<Addr> done;
    FnClient client([&](Tick, const MemRequest &req) {
        done.push_back(req.addr);
    });
    const Addr a = at(mc, 0, 1, 0);
    const Addr b = at(mc, 0, 2, 0);
    const Addr c = at(mc, 0, 1, 1);
    mc.read(a, 0, &client);
    mc.read(b, 1, &client);
    mc.read(c, 2, &client);
    eq.runUntil();
    EXPECT_EQ(done, (std::vector<Addr>{a, c, b}));
}

TEST(RequestPool, WriteDrainInterleavesDeterministically)
{
    // Fill the write queue past its half-full drain threshold while a
    // read stream runs; the drain must retire every write and the
    // reads must all complete (the LIFO-recycled requests keep their
    // queue discipline).
    EventQueue eq;
    MemConfig cfg = oneChannel(SchedulerPolicy::FrFcfs);
    MemoryController mc(eq, cfg);
    std::uint64_t reads_done = 0;
    FnClient client([&](Tick) { ++reads_done; });
    // Reads first so pendingReads > 0 and the writebacks actually park
    // in the write queue instead of dispatching immediately.
    for (int i = 0; i < 10; ++i)
        mc.read(at(mc, 0, static_cast<std::uint64_t>(i)), 0, &client);
    for (std::uint32_t i = 0; i < cfg.writeQueueDepth; ++i)
        mc.writeback(at(mc, 1, 100 + i), 0);
    eq.runUntil();
    McCounters c = mc.sampleCounters();
    EXPECT_EQ(c.writes, cfg.writeQueueDepth);
    EXPECT_EQ(reads_done, 10u);
    EXPECT_EQ(mc.requestPool().inUse(), 0u);
}

TEST(RequestPool, ChannelDestructionReleasesQueuedAndInflight)
{
    // Tear the controller down mid-burst: queued requests, an
    // in-flight request at each bank head, and parked writebacks must
    // all return to the pool (no leak — ASan-clean) before the pool
    // itself is destroyed.
    EventQueue eq;
    {
        MemConfig cfg = oneChannel();
        MemoryController mc(eq, cfg);
        FnClient client([](Tick) {});
        for (int i = 0; i < 40; ++i)
            mc.read(at(mc, static_cast<std::uint32_t>(i % 4), 1, i), 0,
                    &client);
        for (int i = 0; i < 10; ++i)
            mc.writeback(at(mc, 7, 50 + i), 0);
        // Run just far enough that bank heads are in service but the
        // queues are still deep.
        eq.runUntil(nsToTick(40.0));
        EXPECT_GT(mc.requestPool().inUse(), 0u);
        EXPECT_EQ(mc.requestPool().inUse(), mc.pending());
    }
    // The events still queued reference the dead controller; they must
    // never run.  (A fresh queue would be equivalent; this documents
    // the contract.)
}

TEST(RequestPool, DestructionWithUntouchedQueueIsClean)
{
    EventQueue eq;
    MemConfig cfg = oneChannel();
    MemoryController mc(eq, cfg);
    FnClient client([](Tick) {});
    for (int i = 0; i < 8; ++i)
        mc.read(at(mc, 0, 1, i), 0, &client);
    EXPECT_EQ(mc.requestPool().inUse(), 8u);
    // Destroyed without running a single event: everything queued.
}
