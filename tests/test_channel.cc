/**
 * @file
 * Memory controller + channel scheduler tests: exact service latencies
 * at multiple frequencies, row-buffer management, bank/bus contention,
 * writeback priority, powerdown, re-lock stalls, refresh, and the
 * MemScale counter semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/client.hh"
#include "mem/controller.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

struct Harness
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc;
    LambdaClients clients;

    explicit Harness(FreqIndex f = nominalFreqIndex,
                     MemConfig c = MemConfig())
        : cfg(c), mc(eq, cfg, f)
    {
    }

    /** Issue a read with a lambda completion (pooled adapter). */
    template <typename F>
    void
    read(Addr a, CoreId core, F fn)
    {
        mc.read(a, core, clients.add(std::move(fn)));
    }

    /** Address of (channel, rank, bank, row, column). */
    Addr
    at(std::uint32_t ch, std::uint32_t rank, std::uint32_t bank,
       std::uint64_t row, std::uint64_t col = 0)
    {
        DecodedAddr d;
        d.channel = ch;
        d.rank = rank;
        d.bank = bank;
        d.row = row;
        d.column = col;
        return mc.addressMap().encode(d);
    }

    Tick
    readAndWait(Addr a)
    {
        Tick done = 0;
        read(a, 0, [&](Tick t) { done = t; });
        eq.runUntil();
        return done;
    }
};

/** Uncontended closed-bank read service time at a frequency. */
Tick
closedReadLatency(FreqIndex f)
{
    const TimingParams &tp = TimingParams::at(f);
    return tp.tMC + tp.tRCD + tp.tCL + tp.tBURST;
}

} // namespace

TEST(Channel, UncontendedClosedReadLatency800)
{
    Harness h;
    Tick done = h.readAndWait(h.at(0, 0, 0, 5));
    // tMC(3.125ns) + tRCD(15) + tCL(15) + tBURST(5) = 38.125 ns.
    EXPECT_EQ(done, closedReadLatency(0));
    EXPECT_EQ(done, nsToTick(38.125));
}

TEST(Channel, UncontendedClosedReadLatency200)
{
    Harness h(9);
    Tick done = h.readAndWait(h.at(0, 0, 0, 5));
    // tMC(12.5ns) + tRCD(15) + tCL(15) + tBURST(20) = 62.5 ns.
    EXPECT_EQ(done, closedReadLatency(9));
    EXPECT_EQ(done, nsToTick(62.5));
}

class ChannelLatencySweep : public ::testing::TestWithParam<FreqIndex>
{
};

TEST_P(ChannelLatencySweep, MatchesAnalyticalServiceTime)
{
    Harness h(GetParam());
    Tick done = h.readAndWait(h.at(0, 0, 0, 1));
    EXPECT_EQ(done, closedReadLatency(GetParam()));
}

TEST_P(ChannelLatencySweep, LatencyMonotoneInFrequency)
{
    // Lower frequency (higher index) must never be faster.
    FreqIndex f = GetParam();
    if (f == 0)
        return;
    EXPECT_GE(closedReadLatency(f), closedReadLatency(f - 1));
}

INSTANTIATE_TEST_SUITE_P(AllFrequencies, ChannelLatencySweep,
                         ::testing::Range(FreqIndex(0),
                                          numFreqPoints));

TEST(Channel, RowHitWhenQueuedTogether)
{
    Harness h;
    Tick done1 = 0, done2 = 0;
    h.read(h.at(0, 0, 0, 7, 0), 0, [&](Tick t) { done1 = t; });
    h.read(h.at(0, 0, 0, 7, 1), 1, [&](Tick t) { done2 = t; });
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.cbmc, 1u);
    EXPECT_EQ(c.rbhc, 1u);   // second access hits the open row
    // Hit skips precharge+activate: much closer than a full reopen.
    EXPECT_LT(done2 - done1, TimingParams::at(0).tRCD +
                                 TimingParams::at(0).tRP);
    EXPECT_GT(done2, done1);
}

TEST(Channel, ClosedPageClosesWithoutPendingHit)
{
    Harness h;
    // Same row, but issued strictly one after the other: the row is
    // closed in between (closed-page), so both are closed-bank misses.
    Tick done1 = h.readAndWait(h.at(0, 0, 0, 7, 0));
    h.eq.runUntil(done1 + usToTick(1.0));
    h.read(h.at(0, 0, 0, 7, 1), 0, [](Tick) {});
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.cbmc, 2u);
    EXPECT_EQ(c.rbhc, 0u);
}

TEST(Channel, OpenMissPaysPrecharge)
{
    Harness h;
    // Three requests to one bank: first opens row A (kept open for the
    // third, which matches row A), second wants row B -> open miss.
    Tick d2 = 0, d3 = 0;
    h.read(h.at(0, 0, 0, 1, 0), 0, [](Tick) {});
    h.read(h.at(0, 0, 0, 2, 0), 1, [&](Tick t) { d2 = t; });
    h.read(h.at(0, 0, 0, 1, 1), 2, [&](Tick t) { d3 = t; });
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    // Row 1 is held open for the third request, so the second (row 2)
    // pays an open-row miss; the third finds the bank precharged
    // again because row 2 had no pending match.
    EXPECT_EQ(c.cbmc, 2u);
    EXPECT_EQ(c.obmc, 1u);
    EXPECT_GT(d3, d2);
}

TEST(Channel, BankConflictSerializes)
{
    Harness h;
    Tick d1 = 0, d2 = 0;
    h.read(h.at(0, 0, 0, 1), 0, [&](Tick t) { d1 = t; });
    h.read(h.at(0, 0, 0, 2), 1, [&](Tick t) { d2 = t; });
    h.eq.runUntil();
    // Second request waits for the first's full access + precharge.
    const TimingParams &tp = TimingParams::at(0);
    EXPECT_GE(d2 - d1, tp.tRP + tp.tRCD);
}

TEST(Channel, ChannelsAreParallel)
{
    Harness h;
    Tick d1 = 0, d2 = 0;
    h.read(h.at(0, 0, 0, 1), 0, [&](Tick t) { d1 = t; });
    h.read(h.at(1, 0, 0, 1), 1, [&](Tick t) { d2 = t; });
    h.eq.runUntil();
    EXPECT_EQ(d1, d2);   // independent channels, identical timing
}

TEST(Channel, BusSerializesBanksOfOneChannel)
{
    Harness h;
    Tick d1 = 0, d2 = 0;
    h.read(h.at(0, 0, 0, 1), 0, [&](Tick t) { d1 = t; });
    h.read(h.at(0, 0, 1, 1), 1, [&](Tick t) { d2 = t; });
    h.eq.runUntil();
    // Bank work overlaps; bursts serialize on the data bus.  The
    // second finishes one burst after the first (plus the rank tRRD
    // offset on the activates).
    const TimingParams &tp = TimingParams::at(0);
    EXPECT_GE(d2 - d1, tp.tBURST);
    EXPECT_LE(d2 - d1, tp.tBURST + tp.tRRD);
}

TEST(Channel, WritebacksYieldToReads)
{
    Harness h;
    // A writeback alone (no reads pending) proceeds immediately.
    h.mc.writeback(h.at(0, 0, 0, 3), 0);
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.writes, 1u);
}

TEST(Channel, WriteQueueDrainsAtHalfFull)
{
    Harness h;
    // Keep reads flowing to one bank while posting writes to another;
    // writes must still complete once the queue hits half depth.
    for (std::uint32_t i = 0; i < h.cfg.writeQueueDepth; ++i)
        h.mc.writeback(h.at(0, 0, 1, 100 + i), 0);
    h.read(h.at(0, 0, 0, 1), 0, [](Tick) {});
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.writes, h.cfg.writeQueueDepth);
    EXPECT_EQ(c.reads, 1u);
}

TEST(Channel, QueueCountersSeeOutstandingWork)
{
    Harness h;
    h.read(h.at(0, 0, 0, 1), 0, [](Tick) {});
    h.read(h.at(0, 0, 0, 2), 1, [](Tick) {});
    h.read(h.at(0, 0, 0, 3), 2, [](Tick) {});
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.btc, 3u);
    // Arrivals saw 0, 1, 2 requests already at the bank.
    EXPECT_EQ(c.bto, 3u);
    EXPECT_EQ(c.ctc, 3u);
    EXPECT_NEAR(c.xiBank(), 2.0, 1e-12);
}

TEST(Channel, PowerdownEntryAndExit)
{
    Harness h;
    h.mc.setPowerdownMode(PowerdownMode::FastExit);
    Tick d1 = h.readAndWait(h.at(0, 0, 0, 1));
    // After idling, the rank sits in precharge powerdown.
    h.eq.runUntil(d1 + usToTick(1.0));
    IntervalActivity ia = h.mc.sampleActivity();
    EXPECT_GT(ia.ranks[0].prePowerdownTime, 0u);
    // The next read pays the tXP exit and counts one more EPDC (the
    // first read already exited the powerdown entered when the mode
    // was switched on with an idle rank).
    McCounters before = h.mc.sampleCounters();
    Tick start = h.eq.now();
    Tick d2 = 0;
    h.read(h.at(0, 0, 0, 2), 0, [&](Tick t) { d2 = t; });
    h.eq.runUntil();
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.epdc - before.epdc, 1u);
    EXPECT_GE(d2 - start,
              closedReadLatency(0) + TimingParams::at(0).tXP -
                  TimingParams::at(0).tMC);
}

namespace
{

/** Collects every PowerdownEnter a controller announces. */
struct PowerdownLog : CommandObserver
{
    std::vector<DramCmdEvent> enters;

    void
    onCommand(const DramCmdEvent &ev) override
    {
        if (ev.cmd == DramCmd::PowerdownEnter)
            enters.push_back(ev);
    }

    void
    onTimingChange(std::uint32_t, Tick, const TimingParams &) override
    {
    }

    /** Tick of the first enter of (channel, rank) at or after `from`. */
    Tick
    firstEnter(std::uint32_t ch, std::uint32_t rank, Tick from) const
    {
        for (const DramCmdEvent &ev : enters) {
            if (ev.channel == ch && ev.rank == rank && ev.at >= from)
                return ev.at;
        }
        return MaxTick;
    }
};

/**
 * Events `runUntil` executes to serve `k` reads issued one at a time,
 * each after the previous one has fully completed (closed page, new
 * row every time, no refresh).
 */
std::uint64_t
eventsForIsolatedReads(PowerdownMode mode, int k)
{
    Harness h;
    h.mc.setPowerdownMode(mode);
    std::uint64_t events = 0;
    for (int i = 0; i < k; ++i) {
        h.read(h.at(0, 0, 0, 10 + i), 0, [](Tick) {});
        events += h.eq.runUntil();
    }
    return events;
}

} // namespace

TEST(Channel, EventsPerIsolatedRead)
{
    // Without powerdown a read costs only its burst completion: the
    // ACT and the trailing precharge are recorded in the rank.  Under
    // a powerdown mode the trailing precharge keeps its event, since
    // it decides whether the rank powers down.
    constexpr int k = 7;
    EXPECT_EQ(eventsForIsolatedReads(PowerdownMode::None, k),
              std::uint64_t(k));
    EXPECT_EQ(eventsForIsolatedReads(PowerdownMode::FastExit, k),
              std::uint64_t(2 * k));
}

TEST(Channel, SwitchOutOfNoneBeforePrechargePowersDownOnTime)
{
    const TimingParams &tp = TimingParams::at(0);
    // A closed-bank read at tick 0: ACT at tMC, burst ends at `done`,
    // and the trailing precharge completes at `pre_done`.
    const Tick done = closedReadLatency(0);
    const Tick pre_done = std::max(done, tp.tMC + tp.tRAS) + tp.tRP;
    ASSERT_GT(pre_done, done + 1);

    Harness h;
    PowerdownLog log;
    h.mc.setCommandObserver(&log);
    h.read(h.at(0, 0, 0, 3), 0, [](Tick) {});
    // Switch between the burst's end and its precharge: the close is
    // recorded in the rank with no event behind it, so the switch
    // must schedule the powerdown decision itself.
    h.eq.schedule(done + 1, [&h] {
        h.mc.setPowerdownMode(PowerdownMode::FastExit);
    });
    h.eq.runUntil();
    // The busy rank powers down when its precharge completes; rank 1
    // never saw traffic and powers down at the switch.
    EXPECT_EQ(log.firstEnter(0, 0, 0), pre_done);
    EXPECT_EQ(log.firstEnter(0, 1, 0), done + 1);
    EXPECT_EQ(h.mc.ranksPoweredDown(), h.mc.config().totalRanks());
}

TEST(Channel, SlowExitCostsMore)
{
    auto exit_latency = [](PowerdownMode mode) {
        Harness h;
        h.mc.setPowerdownMode(mode);
        Tick d1 = h.readAndWait(h.at(0, 0, 0, 1));
        h.eq.runUntil(d1 + usToTick(1.0));
        Tick start = h.eq.now();
        Tick d2 = 0;
        h.read(h.at(0, 0, 0, 2), 0, [&](Tick t) { d2 = t; });
        h.eq.runUntil();
        return d2 - start;
    };
    Tick fast = exit_latency(PowerdownMode::FastExit);
    Tick slow = exit_latency(PowerdownMode::SlowExit);
    EXPECT_EQ(slow - fast,
              TimingParams::at(0).tXPDLL - TimingParams::at(0).tXP);
}

TEST(Channel, FrequencyChangeStallsAndApplies)
{
    Harness h;
    bool hook_called = false;
    h.mc.setBeforeFreqChangeHook([&] { hook_called = true; });
    Tick resume = h.mc.setFrequency(5);   // 467 MHz
    EXPECT_TRUE(hook_called);
    EXPECT_EQ(h.mc.busMHz(), 467u);
    EXPECT_GE(resume, TimingParams::at(5).tRELOCK);
    // A read issued during the stall completes only after it.
    Tick done = 0;
    h.read(h.at(0, 0, 0, 1), 0, [&](Tick t) { done = t; });
    h.eq.runUntil();
    EXPECT_GE(done, resume);
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.freqTransitions, 1u);
    EXPECT_GT(c.relockStallTime, 0u);
}

TEST(Channel, SameFrequencyIsNoop)
{
    Harness h;
    bool hook_called = false;
    h.mc.setBeforeFreqChangeHook([&] { hook_called = true; });
    h.mc.setFrequency(nominalFreqIndex);
    EXPECT_FALSE(hook_called);
    EXPECT_EQ(h.mc.sampleCounters().freqTransitions, 0u);
}

TEST(Channel, RefreshRuns)
{
    Harness h;
    h.mc.startRefresh();
    h.eq.runUntil(usToTick(20.0));
    IntervalActivity ia = h.mc.sampleActivity();
    std::uint64_t refreshes = 0;
    for (const RankActivity &r : ia.ranks)
        refreshes += r.refreshes;
    // tREFI = 7.8 us: every rank refreshed at least once in 20 us.
    EXPECT_GE(refreshes, static_cast<std::uint64_t>(ia.ranks.size()));
}

TEST(Channel, RefreshDelaysColocatedRead)
{
    Harness h;
    h.mc.startRefresh();
    // Find a moment just after a refresh starts and issue a read.
    h.eq.runUntil(usToTick(2.0));
    Tick start = h.eq.now();
    Tick done = 0;
    h.read(h.at(0, 0, 0, 1), 0, [&](Tick t) { done = t; });
    h.eq.runUntil(start + usToTick(5.0));
    ASSERT_GT(done, 0u);
    // Latency is at least the uncontended time; not absurdly more.
    EXPECT_GE(done - start, closedReadLatency(0));
}

TEST(Channel, DecoupledAddsLatencyButKeepsChannelRate)
{
    Harness base, dec;
    dec.mc.setDecoupled(400);
    Tick t_base = base.readAndWait(base.at(0, 0, 0, 1));
    Tick t_dec = dec.readAndWait(dec.at(0, 0, 0, 1));
    EXPECT_GT(t_dec, t_base);
    // Far cheaper than actually running the channel at 400 MHz.
    Harness slow(6);   // 400 MHz grid point
    Tick t_slow = slow.readAndWait(slow.at(0, 0, 0, 1));
    EXPECT_LT(t_dec - t_base, t_slow - t_base);
}

TEST(Channel, PendingTracksOutstanding)
{
    Harness h;
    EXPECT_EQ(h.mc.pending(), 0u);
    h.read(h.at(0, 0, 0, 1), 0, [](Tick) {});
    h.mc.writeback(h.at(1, 0, 0, 1), 0);
    EXPECT_EQ(h.mc.pending(), 2u);
    h.eq.runUntil();
    EXPECT_EQ(h.mc.pending(), 0u);
}

TEST(Channel, ReadLatencyCounterAccumulates)
{
    Harness h;
    h.readAndWait(h.at(0, 0, 0, 1));
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.readLatencyTotal, closedReadLatency(0));
}

TEST(Channel, BurstTimeAccounting)
{
    Harness h;
    h.readAndWait(h.at(0, 0, 0, 1));
    h.readAndWait(h.at(1, 0, 0, 1));
    McCounters c = h.mc.sampleCounters();
    EXPECT_EQ(c.busBusyTime, 2 * TimingParams::at(0).tBURST);
}
