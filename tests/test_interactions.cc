/**
 * @file
 * Cross-feature interaction tests: combinations of DVFS re-locking,
 * powerdown modes, Decoupled DIMMs, refresh, throttling, and page
 * policies that individually pass but have historically conflicting
 * state machines in real controllers.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "harness/experiment.hh"
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

    explicit Harness(MemConfig c = MemConfig()) : cfg(c), mc(eq, cfg)
    {
    }

    Addr
    at(std::uint32_t ch, std::uint32_t rank, std::uint32_t bank,
       std::uint64_t row)
    {
        DecodedAddr d;
        d.channel = ch;
        d.rank = rank;
        d.bank = bank;
        d.row = row;
        return mc.addressMap().encode(d);
    }

    std::uint64_t
    blast(int n, std::uint64_t seed = 5)
    {
        Rng rng(seed);
        std::uint64_t done = 0;
        FnClient client([&done](Tick) { ++done; });
        for (int i = 0; i < n; ++i) {
            Addr a = (rng.next() % cfg.totalBytes()) & ~Addr(63);
            if (rng.chance(0.25))
                mc.writeback(a, 0);
            else
                mc.read(a, 0, &client);
        }
        eq.runUntil();
        return done;
    }
};

} // namespace

TEST(Interaction, DvfsDuringPowerdown)
{
    Harness h;
    h.mc.setPowerdownMode(PowerdownMode::FastExit);
    h.blast(50);
    h.eq.runUntil(h.eq.now() + usToTick(2.0));
    // Ranks are asleep; re-locking must wake, relock, and resume.
    h.mc.setFrequency(7);
    std::uint64_t done = h.blast(50, 6);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(h.mc.busMHz(), 333u);
    EXPECT_EQ(h.mc.pending(), 0u);
}

TEST(Interaction, DvfsWithDecoupledDevices)
{
    Harness h;
    h.mc.setDecoupled(400);
    h.mc.setFrequency(3);   // channel 600 MHz, devices stay at 400
    std::uint64_t done = h.blast(100);
    EXPECT_GT(done, 0u);
    IntervalActivity ia = h.mc.sampleActivity();
    EXPECT_EQ(ia.deviceBusMHz, 400u);
    EXPECT_EQ(ia.busMHz, 600u);
}

TEST(Interaction, ThrottlePlusLowFrequency)
{
    MemConfig cfg;
    Harness h(cfg);
    h.mc.setFrequency(9);
    h.mc.setThrottle(0.5);
    std::uint64_t done = h.blast(200);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(h.mc.pending(), 0u);
}

TEST(Interaction, RefreshAcrossRelock)
{
    Harness h;
    h.mc.startRefresh();
    // Re-lock mid-refresh-schedule repeatedly; refresh must survive.
    for (FreqIndex f : {FreqIndex(5), FreqIndex(9), FreqIndex(0)}) {
        h.mc.setFrequency(f);
        h.eq.runUntil(h.eq.now() + usToTick(20.0));
    }
    IntervalActivity ia = h.mc.sampleActivity();
    std::uint64_t refreshes = 0;
    for (const RankActivity &r : ia.ranks)
        refreshes += r.refreshes;
    // ~60 us elapsed, 16 ranks, tREFI 7.8 us: expect dozens.
    EXPECT_GT(refreshes, 50u);
}

TEST(Interaction, SelfRefreshRanksSkipExternalRefresh)
{
    Harness h;
    h.mc.setPowerdownMode(PowerdownMode::SelfRefresh);
    h.mc.startRefresh();
    // Fully idle: all ranks drop into self-refresh and stay there.
    h.eq.runUntil(usToTick(50.0));
    IntervalActivity ia = h.mc.sampleActivity();
    std::uint64_t ext_refreshes = 0;
    Tick sr_time = 0;
    for (const RankActivity &r : ia.ranks) {
        ext_refreshes += r.refreshes;
        sr_time += r.selfRefreshTime;
    }
    EXPECT_EQ(ext_refreshes, 0u);
    EXPECT_GT(sr_time, 0u);
}

TEST(Interaction, OpenPageWithPowerdown)
{
    MemConfig cfg;
    cfg.pagePolicy = PagePolicy::OpenPage;
    Harness h(cfg);
    h.mc.setPowerdownMode(PowerdownMode::FastExit);
    std::uint64_t done = h.blast(100);
    EXPECT_GT(done, 0u);
    // Open rows keep their ranks out of precharge powerdown; the
    // touched ranks must show active (not powerdown) residency.
    h.eq.runUntil(h.eq.now() + usToTick(5.0));
    IntervalActivity ia = h.mc.sampleActivity();
    Tick act = 0;
    for (const RankActivity &r : ia.ranks)
        act += r.actStandbyTime;
    EXPECT_GT(act, 0u);
}

TEST(Interaction, BackToBackRelocks)
{
    Harness h;
    Tick r1 = h.mc.setFrequency(5);
    Tick r2 = h.mc.setFrequency(9);
    Tick r3 = h.mc.setFrequency(1);
    EXPECT_GT(r2, r1);
    EXPECT_GT(r3, r2);
    std::uint64_t done = h.blast(50);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(h.mc.sampleCounters().freqTransitions, 3u);
}

TEST(Interaction, PerChannelFreqWithDecoupled)
{
    Harness h;
    h.mc.setDecoupled(400);
    h.mc.setChannelFrequency(0, 5);
    std::uint64_t done = h.blast(100);
    EXPECT_GT(done, 0u);
}

TEST(Interaction, DecoupledPolicyUnderMemScaleHarness)
{
    // Decoupled is static, but must coexist with epoch machinery when
    // a dynamic policy is later swapped in on a fresh system.
    SystemConfig cfg;
    cfg.mixName = "MID1";
    cfg.instrBudget = 400'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult dec =
        compareWithBase(cfg, base, rest, "decoupled");
    ComparisonResult ms = compareWithBase(cfg, base, rest, "memscale");
    EXPECT_GT(dec.memEnergySavings, 0.0);
    EXPECT_GT(ms.memEnergySavings, dec.memEnergySavings);
}

TEST(Interaction, WriteHeavyStorm)
{
    Harness h;
    // Saturate the write path across every channel; nothing may wedge.
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        Addr a = (rng.next() % h.cfg.totalBytes()) & ~Addr(63);
        h.mc.writeback(a, 0);
    }
    h.eq.runUntil();
    EXPECT_EQ(h.mc.pending(), 0u);
    EXPECT_EQ(h.mc.sampleCounters().writes, 2000u);
}

// ---------------------------------------------------------------------
// Serving x deep-idle ladder x page migration, STRICT-checked: the
// open-loop front end drives real traffic through a controller whose
// ranks walk the demotion ladder and whose migrator swaps frames
// behind the remap — the three features with the most historically
// conflicting state machines.  The strict checker turns the first
// illegal DDR3 command into a FatalError, so a pass means the whole
// fuzzed matrix replayed protocol-clean.
// ---------------------------------------------------------------------

namespace
{

/** Seed-fuzzed but always-sane ladder + migration mem config. */
MemConfig
servingLadderConfig(Rng &rng)
{
    MemConfig cfg;
    Tick dwell = nsToTick(50.0 + double(rng.next() % 1500));
    cfg.ladder.demoteSlowPd = dwell;
    dwell += nsToTick(50.0 + double(rng.next() % 1500));
    cfg.ladder.demoteSelfRefresh = dwell;
    dwell += nsToTick(50.0 + double(rng.next() % 1500));
    cfg.ladder.demoteSrSlow = dwell;
    dwell += nsToTick(50.0 + double(rng.next() % 1500));
    cfg.ladder.demoteDeepPd = dwell;
    cfg.ladder.migrate = true;
    cfg.ladder.hotRanks =
        1 + static_cast<std::uint32_t>(
                rng.next() % (cfg.ranksPerChannel() - 1));
    cfg.ladder.migrateInterval =
        usToTick(2.0 + double(rng.next() % 20));
    cfg.ladder.maxSwapsPerInterval =
        1 + static_cast<std::uint32_t>(rng.next() % 8);
    cfg.ladder.hotThreshold =
        2 + static_cast<std::uint32_t>(rng.next() % 7);
    return cfg;
}

} // namespace

TEST(Interaction, ServingLadderMigrationStrictMatrix)
{
    // 6 fuzzed episodes cycling arrival processes; rates low enough
    // that idle gaps let ranks demote all the way down while requests
    // keep arriving and frames keep migrating.
    const ArrivalKind kinds[] = {ArrivalKind::Poisson,
                                 ArrivalKind::Bursty,
                                 ArrivalKind::Diurnal};
    std::uint64_t demotions = 0;
    std::uint64_t swaps = 0;
    for (std::uint64_t ep = 0; ep < 6; ++ep) {
        Rng rng(deriveSeed(0x5EAF00D, ep));
        SystemConfig cfg;
        cfg.mixName = "OPENLOOP-LADDER";
        cfg.numCores = 4;
        cfg.epochLen = msToTick(0.1);
        cfg.profileLen = usToTick(10.0);
        cfg.seed = 1000 + ep;
        cfg.mem = servingLadderConfig(rng);
        cfg.protocolCheck = true;
        cfg.strictCheck = true;
        cfg.serving.enabled = true;
        cfg.serving.arrival.kind = kinds[ep % 3];
        cfg.serving.arrival.ratePerSec =
            0.1e6 * (1.0 + double(rng.next() % 4));
        cfg.serving.horizon = msToTick(0.5);

        auto policy = makePolicy("memscale-ladder");
        System sys(cfg, *policy);
        RunResult r;
        ASSERT_NO_THROW(r = sys.run()) << "episode " << ep;

        EXPECT_GT(r.commandsChecked, 0u) << "episode " << ep;
        EXPECT_EQ(r.protocolViolations, 0u)
            << "episode " << ep << ": "
            << (r.protocolViolationSamples.empty()
                    ? ""
                    : r.protocolViolationSamples.front());
        EXPECT_TRUE(r.serving.valid);
        EXPECT_EQ(r.serving.arrived,
                  r.serving.completed + r.serving.dropped +
                      r.serving.queuedAtEnd +
                      r.serving.inServiceAtEnd)
            << "episode " << ep;
        demotions += r.counters.pdDemotions;
        swaps += r.counters.migrations;
    }
    // The matrix must actually exercise both machines, not merely
    // survive them.
    EXPECT_GT(demotions, 0u);
    EXPECT_GT(swaps, 0u);
}
