/**
 * @file
 * Property-based sweeps over the memory system and the models:
 * randomized traffic through every (page policy x scheduler x
 * frequency) combination with invariant checks, an event-queue stress
 * test against the reference model (reference_queue.hh), and
 * cross-frequency model invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "memscale/perf_model.hh"
#include "power/dram_power.hh"
#include "reference_queue.hh"
#include "sim/event_kinds.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

struct TrafficResult
{
    std::uint64_t completedReads = 0;
    std::uint64_t completedWrites = 0;
    Tick minLatency = MaxTick;
    Tick maxLatency = 0;
    Tick lastDone = 0;
    McCounters counters;
};

/** Drive `n` random requests through a controller configuration. */
TrafficResult
runRandomTraffic(MemConfig cfg, FreqIndex freq, std::uint64_t n,
                 std::uint64_t seed, bool with_refresh = true,
                 PowerdownMode pd = PowerdownMode::None)
{
    EventQueue eq;
    MemoryController mc(eq, cfg, freq);
    mc.setPowerdownMode(pd);
    if (with_refresh)
        mc.startRefresh();

    TrafficResult res;
    // One shared client serves every read: per-request context comes
    // from the completed request itself (arrival == issue tick here).
    FnClient client([&](Tick done, const MemRequest &req) {
        ++res.completedReads;
        Tick lat = done - req.arrival;
        res.minLatency = std::min(res.minLatency, lat);
        res.maxLatency = std::max(res.maxLatency, lat);
        res.lastDone = std::max(res.lastDone, done);
    });
    Rng rng(seed);
    Tick t = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        // Arrivals spread over time with bursts.
        t += rng.below(3) == 0 ? 0 : rng.below(nsToTick(200.0));
        Addr addr = (rng.next() % cfg.totalBytes()) & ~Addr(63);
        bool is_write = rng.chance(0.2);
        eq.schedule(t, [&, addr, is_write] {
            if (is_write)
                mc.writeback(addr, 0);
            else
                mc.read(addr, 0, &client);
        });
    }
    eq.runUntil(t + msToTick(10.0));
    res.counters = mc.sampleCounters();
    res.completedWrites = res.counters.writes;
    return res;
}

using ComboParam =
    std::tuple<int /*page*/, int /*sched*/, FreqIndex>;

class MemSystemProperty
    : public ::testing::TestWithParam<ComboParam>
{
  protected:
    MemConfig
    makeConfig() const
    {
        MemConfig cfg;
        cfg.pagePolicy = std::get<0>(GetParam()) == 0
                             ? PagePolicy::ClosedPage
                             : PagePolicy::OpenPage;
        cfg.scheduler = std::get<1>(GetParam()) == 0
                            ? SchedulerPolicy::Fcfs
                            : SchedulerPolicy::FrFcfs;
        return cfg;
    }

    FreqIndex freq() const { return std::get<2>(GetParam()); }
};

} // namespace

TEST_P(MemSystemProperty, AllRequestsComplete)
{
    TrafficResult r =
        runRandomTraffic(makeConfig(), freq(), 2000, 42);
    EXPECT_EQ(r.completedReads, r.counters.reads);
    EXPECT_EQ(r.completedReads + r.completedWrites, 2000u);
}

TEST_P(MemSystemProperty, LatencyBounds)
{
    TrafficResult r =
        runRandomTraffic(makeConfig(), freq(), 2000, 43);
    const TimingParams &tp = TimingParams::at(freq());
    // No read can beat a row hit with zero queueing.
    EXPECT_GE(r.minLatency, tp.tMC + tp.tCL + tp.tBURST);
    // And none should exceed a very generous bound (deadlock guard).
    EXPECT_LT(r.maxLatency, usToTick(50.0));
}

TEST_P(MemSystemProperty, RowOutcomeAccounting)
{
    TrafficResult r =
        runRandomTraffic(makeConfig(), freq(), 2000, 44);
    // Every serviced request is classified exactly once.
    EXPECT_EQ(r.counters.rbhc + r.counters.obmc + r.counters.cbmc,
              r.counters.reads + r.counters.writes);
    // Activations match page open/close pairs.
    EXPECT_EQ(r.counters.pocc,
              r.counters.cbmc + r.counters.obmc);
}

TEST_P(MemSystemProperty, QueueCountersConsistent)
{
    TrafficResult r =
        runRandomTraffic(makeConfig(), freq(), 2000, 45);
    EXPECT_EQ(r.counters.btc, 2000u);
    EXPECT_EQ(r.counters.ctc, 2000u);
    EXPECT_GE(r.counters.xiBank(), 1.0);
    EXPECT_GE(r.counters.xiBus(), 1.0);
}

TEST_P(MemSystemProperty, BusTimeMatchesBursts)
{
    TrafficResult r = runRandomTraffic(makeConfig(), freq(), 1000, 46);
    const TimingParams &tp = TimingParams::at(freq());
    EXPECT_EQ(r.counters.busBusyTime,
              (r.counters.reads + r.counters.writes) * tp.tBURST);
}

TEST_P(MemSystemProperty, DeterministicReplay)
{
    TrafficResult a = runRandomTraffic(makeConfig(), freq(), 800, 47);
    TrafficResult b = runRandomTraffic(makeConfig(), freq(), 800, 47);
    EXPECT_EQ(a.lastDone, b.lastDone);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_DOUBLE_EQ(a.counters.cto, b.counters.cto);
}

TEST_P(MemSystemProperty, PowerdownDoesNotLoseRequests)
{
    TrafficResult r = runRandomTraffic(makeConfig(), freq(), 1500, 48,
                                       true, PowerdownMode::FastExit);
    EXPECT_EQ(r.completedReads + r.completedWrites, 1500u);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, MemSystemProperty,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(FreqIndex(0), FreqIndex(5),
                                         FreqIndex(9))));

TEST(MemSystemProperty, RankStateTimesSumToTotal)
{
    TrafficResult r = runRandomTraffic(MemConfig(), 0, 3000, 49, true,
                                       PowerdownMode::FastExit);
    const McCounters &c = r.counters;
    EXPECT_GT(c.rankTime, 0u);
    EXPECT_LE(c.rankPreTime, c.rankTime);
    EXPECT_LE(c.rankPrePdTime, c.rankPreTime);
}

// ---------------------------------------------------------------------
// Event-queue stress test against the reference model.
// ---------------------------------------------------------------------

TEST(EventQueueStress, MatchesReferenceOrdering)
{
    // Bulk schedule rounds with random ticks, classes and tags (some
    // EvEphemeral, which export skips), mirrored into the kernel and
    // ReferenceQueue: the export and the firing order must agree.
    // A quarter go through scheduleLast(), half of those at ticks that
    // rise with the label, so the lane both appends and falls back.
    EventQueue eq;
    ReferenceQueue ref;
    Rng rng(1234);
    std::vector<int> fired, rfired;
    int label = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i) {
            const Tick when = rng.below(100000);
            const auto cls = static_cast<EventClass>(rng.below(3));
            EventTag tag{static_cast<std::uint32_t>(1 + rng.below(15)),
                         static_cast<std::uint32_t>(rng.below(4)),
                         static_cast<std::uint64_t>(label), 0};
            if (rng.below(10) == 0)
                tag.kind = EvEphemeral;
            const int t = label++;
            auto kfn = [&fired, t] { fired.push_back(t); };
            auto rfn = [&rfired, t] { rfired.push_back(t); };
            switch (rng.below(8)) {
              case 0: {
                const Tick rising = 100000 + 50 * static_cast<Tick>(t);
                eq.scheduleLast(rising, kfn, cls, tag);
                ref.scheduleLast(rising, rfn, cls, tag);
                break;
              }
              case 1:
                eq.scheduleLast(when, kfn, cls, tag);
                ref.scheduleLast(when, rfn, cls, tag);
                break;
              default:
                eq.schedule(when, kfn, cls, tag);
                ref.schedule(when, rfn, cls, tag);
                break;
            }
        }
    }
    ASSERT_EQ(eq.pending(), ref.pending());
    const std::vector<PendingEvent> a = eq.exportPending();
    const std::vector<ReferenceQueue::Pending> b = ref.exportPending();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].when, b[i].when) << "position " << i;
        EXPECT_EQ(static_cast<unsigned>(a[i].cls), b[i].cls)
            << "position " << i;
        EXPECT_EQ(a[i].tag.kind, b[i].tag.kind) << "position " << i;
        EXPECT_EQ(a[i].tag.a, b[i].tag.a) << "position " << i;
    }
    eq.runUntil();
    ref.runUntil();
    ASSERT_EQ(fired.size(), rfired.size());
    EXPECT_EQ(fired, rfired);
    EXPECT_EQ(eq.now(), ref.now());
}

// ---------------------------------------------------------------------
// Cross-frequency model invariants on random counter profiles.
// ---------------------------------------------------------------------

TEST(ModelProperty, TpiMemMonotoneForRandomProfiles)
{
    Rng rng(777);
    for (int trial = 0; trial < 50; ++trial) {
        ProfileData p;
        p.windowLen = usToTick(100.0);
        p.freqDuring = static_cast<FreqIndex>(rng.below(10));
        std::uint64_t accesses = 100 + rng.below(100000);
        p.mc.rbhc = rng.below(accesses / 4 + 1);
        p.mc.obmc = rng.below(accesses / 8 + 1);
        p.mc.cbmc = accesses - p.mc.rbhc - p.mc.obmc;
        p.mc.btc = accesses;
        p.mc.bto = rng.below(accesses * 3);
        p.mc.ctc = accesses;
        p.mc.cto = rng.uniform() * accesses * 2;
        p.cores.push_back(
            CoreSample{1'000'000, accesses});
        PerfModel m;
        m.calibrate(p);
        for (FreqIndex f = 1; f < numFreqPoints; ++f)
            EXPECT_GE(m.tpiMem(f), m.tpiMem(f - 1));
    }
}

TEST(ModelProperty, RankEnergyNonNegativeEverywhere)
{
    Rng rng(888);
    PowerParams pp;
    for (int trial = 0; trial < 100; ++trial) {
        RankActivity a;
        a.totalTime = usToTick(1.0 + rng.uniform() * 1000.0);
        Tick rem = a.totalTime;
        a.prePowerdownTime = rng.below(rem + 1);
        rem -= a.prePowerdownTime;
        a.slowPowerdownTime = rng.below(a.prePowerdownTime + 1);
        a.preStandbyTime = rng.below(rem + 1);
        rem -= a.preStandbyTime;
        a.actPowerdownTime = rng.below(rem + 1);
        a.actStandbyTime = rem - a.actPowerdownTime;
        a.actPreCount = rng.below(10000);
        a.readBursts = rng.below(10000);
        a.writeBursts = rng.below(10000);
        a.readBurstTime = a.readBursts * 5000;
        a.writeBurstTime = a.writeBursts * 5000;
        a.refreshes = rng.below(100);
        FreqIndex f = static_cast<FreqIndex>(rng.below(10));
        RankEnergy e = rankEnergy(a, TimingParams::at(f), pp,
                                  rng.below(usToTick(100.0)));
        EXPECT_GE(e.background, 0.0);
        EXPECT_GE(e.actPre, 0.0);
        EXPECT_GE(e.readWrite, 0.0);
        EXPECT_GE(e.termination, 0.0);
        EXPECT_GE(e.refresh, 0.0);
    }
}

TEST(ModelProperty, BackgroundEnergyMonotoneInFrequency)
{
    PowerParams pp;
    RankActivity a;
    a.totalTime = msToTick(1.0);
    a.preStandbyTime = a.totalTime;
    double prev = -1.0;
    for (FreqIndex f = numFreqPoints; f-- > 0;) {
        double e =
            rankEnergy(a, TimingParams::at(f), pp, 0).background;
        EXPECT_GT(e, prev);
        prev = e;
    }
}
