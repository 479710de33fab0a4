/**
 * @file
 * Property/fuzz matrix for the deep idle-state ladder (ctest label
 * `idle`): randomized traffic with hot/cold skew, randomized demotion
 * thresholds, migration-based rank consolidation, refresh, and
 * frequency re-locks — all driven through the real controller with
 * the protocol checker in STRICT mode, so the first illegal command
 * aborts the episode with full provenance and the seed that produced
 * it.
 *
 * On top of protocol cleanliness the suite pins two accounting
 * invariants the power model depends on:
 *  - residency times partition wall time per rank (the four CKE/bank
 *    quadrants sum exactly to totalTime, and the deep rungs are
 *    subsets of precharge powerdown), and
 *  - energy integrals are non-negative per window and monotone in
 *    time, for every rung the fuzzed ladder visits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/protocol_checker.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "mem/migration.hh"
#include "power/dram_power.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

/** Randomized but always-sane ladder config derived from the seed. */
MemConfig
ladderConfig(Rng &rng)
{
    MemConfig cfg;
    cfg.numChannels = 1;
    // Dwell thresholds: each rung waits 50 ns .. ~2 us beyond the
    // previous one, so episodes visit different rung mixes.
    Tick dwell = nsToTick(50.0 + double(rng.next() % 2000));
    cfg.ladder.demoteSlowPd = dwell;
    dwell += nsToTick(50.0 + double(rng.next() % 2000));
    cfg.ladder.demoteSelfRefresh = dwell;
    dwell += nsToTick(50.0 + double(rng.next() % 2000));
    cfg.ladder.demoteSrSlow = dwell;
    dwell += nsToTick(50.0 + double(rng.next() % 2000));
    cfg.ladder.demoteDeepPd = dwell;
    cfg.ladder.migrate = true;
    cfg.ladder.hotRanks =
        1 + static_cast<std::uint32_t>(
                rng.next() % (cfg.ranksPerChannel() - 1));
    cfg.ladder.migrateInterval =
        usToTick(2.0 + double(rng.next() % 20));
    cfg.ladder.maxSwapsPerInterval =
        1 + static_cast<std::uint32_t>(rng.next() % 8);
    // Promotion threshold low enough that a short episode's skewed
    // traffic actually qualifies frames for consolidation.
    cfg.ladder.hotThreshold =
        2 + static_cast<std::uint32_t>(rng.next() % 7);
    return cfg;
}

struct LadderEpisode
{
    std::string violation;     ///< empty = strict checker stayed clean
    std::uint64_t commands = 0;
    std::uint64_t demotions = 0;
    std::uint64_t swaps = 0;
    std::uint64_t relocks = 0;
    IntervalActivity activity; ///< cumulative, sampled at the end
    Tick end = 0;              ///< wall time at the final sample
};

/**
 * One fuzz episode under the STRICT checker.  Traffic is skewed: most
 * accesses hit a small hot region (so consolidation has something to
 * consolidate), the rest roam the whole address space; idle gaps are
 * long enough for ranks to walk the whole ladder.
 */
LadderEpisode
fuzzLadder(std::uint64_t seed, int ops)
{
    EventQueue eq;
    Rng rng(seed);
    MemConfig cfg = ladderConfig(rng);
    MemoryController mc(eq, cfg);
    ProtocolChecker pc(/*strict=*/true);
    mc.setCommandObserver(&pc);
    mc.startRefresh();
    mc.startMigration();
    mc.setPowerdownMode(PowerdownMode::Ladder);

    const Addr span = cfg.totalBytes();
    const Addr hot_span = span / 256;
    std::uint64_t outstanding_cb = 0;
    FnClient client([&](Tick) { --outstanding_cb; });

    LadderEpisode ep;
    try {
        for (int i = 0; i < ops; ++i) {
            switch (rng.next() % 16) {
              case 0:
                mc.setFrequency(static_cast<FreqIndex>(
                    rng.next() % numFreqPoints));
                break;
              case 1:
              case 2: {
                // Long idle gap: lets cold ranks demote all the way
                // down and migration passes fire with no traffic.
                Tick gap =
                    usToTick(1.0 + double(rng.next() % 100));
                eq.runUntil(eq.now() + gap);
                break;
              }
              default: {
                // 7/8 hot, 1/8 cold — the skew consolidation needs.
                Addr region = rng.next() % 8 ? hot_span : span;
                Addr a = (rng.next() % region) &
                         ~Addr(cfg.lineBytes - 1);
                if (rng.next() % 3 == 0) {
                    mc.writeback(a, 0);
                } else {
                    ++outstanding_cb;
                    mc.read(a, 0, &client);
                }
                if (rng.next() % 4 == 0)
                    eq.runUntil(eq.now() +
                                nsToTick(10.0 +
                                         double(rng.next() % 500)));
                break;
              }
            }
        }
        // Drain with a capped horizon (refresh/migration re-arm
        // forever); then settle so every rank is mid-residency.
        eq.runUntil(eq.now() + msToTick(5.0));
    } catch (const FatalError &e) {
        ep.violation = e.message;
        return ep;
    }

    McCounters c = mc.sampleCounters();
    ep.commands = pc.commandsChecked();
    ep.demotions = c.pdDemotions;
    ep.swaps = c.migrations;
    ep.relocks = pc.relocksSeen();
    ep.activity = mc.sampleActivity();
    ep.end = eq.now();
    EXPECT_EQ(outstanding_cb, 0u) << "seed=" << seed;
    return ep;
}

} // namespace

TEST(IdleLadderFuzz, StrictCheckerCleanAcrossSeedMatrix)
{
    const std::uint64_t base = 0x1ad2de39;
    std::uint64_t demotions = 0, swaps = 0, relocks = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        std::uint64_t seed = deriveSeed(base, i);
        LadderEpisode ep = fuzzLadder(seed, 300);
        EXPECT_EQ(ep.violation, "") << "seed=" << seed;
        EXPECT_GT(ep.commands, 100u) << "seed=" << seed;
        demotions += ep.demotions;
        swaps += ep.swaps;
        relocks += ep.relocks;
    }
    // The matrix must actually exercise what it claims to: ladder
    // walk-downs, consolidation swaps, and frequency transitions.
    EXPECT_GT(demotions, 0u);
    EXPECT_GT(swaps, 0u);
    EXPECT_GT(relocks, 0u);
}

TEST(IdleLadderFuzz, ResidencyTimesPartitionWallTime)
{
    const std::uint64_t base = 0xc01dbeef;
    for (std::uint64_t i = 0; i < 4; ++i) {
        std::uint64_t seed = deriveSeed(base, i);
        LadderEpisode ep = fuzzLadder(seed, 200);
        ASSERT_EQ(ep.violation, "") << "seed=" << seed;
        ASSERT_FALSE(ep.activity.ranks.empty());
        bool any_deep = false;
        for (std::size_t r = 0; r < ep.activity.ranks.size(); ++r) {
            const RankActivity &a = ep.activity.ranks[r];
            // The four CKE/bank quadrants partition the rank's whole
            // life, which is exactly the wall time at the sample.
            EXPECT_EQ(a.preStandbyTime + a.prePowerdownTime +
                          a.actStandbyTime + a.actPowerdownTime,
                      a.totalTime)
                << "seed=" << seed << " rank=" << r;
            EXPECT_EQ(a.totalTime, ep.end)
                << "seed=" << seed << " rank=" << r;
            // The deep rungs are disjoint refinements of precharge
            // powerdown; FastPd is the (implicit) remainder.
            EXPECT_LE(a.slowPowerdownTime + a.selfRefreshTime +
                          a.srSlowClockTime + a.deepPowerdownTime,
                      a.prePowerdownTime)
                << "seed=" << seed << " rank=" << r;
            any_deep |= a.selfRefreshTime + a.srSlowClockTime +
                            a.deepPowerdownTime >
                        0;
        }
        EXPECT_TRUE(any_deep) << "seed=" << seed
                              << ": ladder never left fast/slow PD";
    }
}

TEST(IdleLadderFuzz, EnergyIntegralsNonNegativeAndMonotone)
{
    // Fixed frequency (energy windows need one set of params), random
    // ladder thresholds, bursty traffic with long idle tails: every
    // per-window energy component must be >= 0 and the cumulative
    // integral monotone.
    const std::uint64_t base = 0x0e4e26;
    for (std::uint64_t i = 0; i < 3; ++i) {
        std::uint64_t seed = deriveSeed(base, i);
        EventQueue eq;
        Rng rng(seed);
        MemConfig cfg = ladderConfig(rng);
        MemoryController mc(eq, cfg);
        ProtocolChecker pc(/*strict=*/true);
        mc.setCommandObserver(&pc);
        mc.startRefresh();
        mc.startMigration();
        mc.setPowerdownMode(PowerdownMode::Ladder);

        const TimingParams &tp = TimingParams::at(0);
        const PowerParams pp;
        const Addr span = cfg.totalBytes();
        FnClient client([&](Tick) {});

        IntervalActivity prev = mc.sampleActivity();
        Joules cumulative = 0.0;
        for (int window = 0; window < 20; ++window) {
            // A burst of traffic then an idle tail inside each window.
            int burst = static_cast<int>(rng.next() % 40);
            for (int b = 0; b < burst; ++b) {
                Addr a = (rng.next() % span) &
                         ~Addr(cfg.lineBytes - 1);
                if (rng.next() % 3 == 0)
                    mc.writeback(a, 0);
                else
                    mc.read(a, 0, &client);
            }
            eq.runUntil(eq.now() + usToTick(20.0));

            IntervalActivity cur = mc.sampleActivity();
            Joules window_total = 0.0;
            ASSERT_EQ(cur.ranks.size(), prev.ranks.size());
            for (std::size_t r = 0; r < cur.ranks.size(); ++r) {
                RankActivity d = cur.ranks[r] - prev.ranks[r];
                EXPECT_EQ(d.totalTime, usToTick(20.0))
                    << "seed=" << seed << " window=" << window;
                RankEnergy e = rankEnergy(d, tp, pp, 0);
                EXPECT_GE(e.background, 0.0) << "seed=" << seed;
                EXPECT_GE(e.actPre, 0.0) << "seed=" << seed;
                EXPECT_GE(e.readWrite, 0.0) << "seed=" << seed;
                EXPECT_GE(e.termination, 0.0) << "seed=" << seed;
                EXPECT_GE(e.refresh, 0.0) << "seed=" << seed;
                window_total += e.total();
            }
            // Background current alone makes every window's energy
            // strictly positive — the integral is strictly monotone.
            EXPECT_GT(window_total, 0.0)
                << "seed=" << seed << " window=" << window;
            cumulative += window_total;
            EXPECT_GE(cumulative, window_total);
            prev = cur;
        }
        EXPECT_EQ(pc.violations(), 0u) << "seed=" << seed;
    }
}

namespace
{

/**
 * Records every announced command (and forwards it to a strict
 * checker), so a test can read each rank's CKE walk back.
 */
struct CommandLog final : CommandObserver
{
    ProtocolChecker pc{/*strict=*/true};
    std::vector<DramCmdEvent> cmds;

    void
    onCommand(const DramCmdEvent &ev) override
    {
        cmds.push_back(ev);
        pc.onCommand(ev);
    }

    void
    onTimingChange(std::uint32_t ch, Tick at,
                   const TimingParams &tp) override
    {
        pc.onTimingChange(ch, at, tp);
    }

    /** Powerdown enters of one rank: (tick, rung), in announce order. */
    std::vector<std::pair<Tick, RankIdleState>>
    enters(std::uint32_t rank) const
    {
        std::vector<std::pair<Tick, RankIdleState>> out;
        for (const DramCmdEvent &ev : cmds) {
            if (ev.cmd == DramCmd::PowerdownEnter && ev.rank == rank)
                out.emplace_back(ev.at,
                                 static_cast<RankIdleState>(ev.pdState));
        }
        return out;
    }

    /** Powerdown exits of one rank, in announce order. */
    std::vector<DramCmdEvent>
    exits(std::uint32_t rank) const
    {
        std::vector<DramCmdEvent> out;
        for (const DramCmdEvent &ev : cmds) {
            if (ev.cmd == DramCmd::PowerdownExit && ev.rank == rank)
                out.push_back(ev);
        }
        return out;
    }
};

/** One channel, no migration, the given dwell per rung. */
MemConfig
planConfig(Tick slow, Tick sr, Tick sr_slow, Tick deep)
{
    MemConfig cfg;
    cfg.numChannels = 1;
    cfg.ladder.demoteSlowPd = slow;
    cfg.ladder.demoteSelfRefresh = sr;
    cfg.ladder.demoteSrSlow = sr_slow;
    cfg.ladder.demoteDeepPd = deep;
    return cfg;
}

Addr
rankAddr(const MemoryController &mc, std::uint32_t rank,
         std::uint32_t bank, std::uint64_t row = 0)
{
    DecodedAddr d;
    d.rank = rank;
    d.bank = bank;
    d.row = row;
    return mc.addressMap().encode(d);
}

/** Time a rank entered at `t0` has spent in the rungs of `a` at `t`. */
struct Residency
{
    Tick pd, slow, sr, srSlow, deep;
};

Residency
expectedResidency(Tick t0, const Tick (&at)[4], Tick t)
{
    auto span = [&](Tick from, Tick to) -> Tick {
        const Tick hi = std::min(t, to);
        return hi > from ? hi - from : 0;
    };
    return {span(t0, MaxTick), span(at[0], at[1]), span(at[1], at[2]),
            span(at[2], at[3]), span(at[3], MaxTick)};
}

} // namespace

TEST(IdleLadderPlan, StateAndResidencyAtEachRungTick)
{
    // Every rank goes idle when the mode is set at tick 0, so each one
    // walks the default ladder from there: rungs at 200 ns, 1.2 us,
    // 5.2 us and 21.2 us.  Sample one tick before, on and after each
    // rung.
    const MemConfig cfg = planConfig(nsToTick(200.0), nsToTick(1000.0),
                                     nsToTick(4000.0), nsToTick(16000.0));
    EventQueue eq;
    MemoryController mc(eq, cfg);
    CommandLog log;
    mc.setCommandObserver(&log);
    mc.setPowerdownMode(PowerdownMode::Ladder);

    const Tick at[4] = {nsToTick(200.0), nsToTick(1200.0),
                        nsToTick(5200.0), nsToTick(21200.0)};
    const std::uint32_t ranks = cfg.ranksPerChannel();
    for (int k = 0; k < 4; ++k) {
        for (Tick t : {at[k] - 1, at[k], at[k] + 1}) {
            eq.runUntil(t);
            ASSERT_EQ(eq.now(), t);
            const McCounters c = mc.sampleCounters();
            const std::uint64_t rungs = t >= at[k] ? k + 1 : k;
            EXPECT_EQ(c.pdDemotions, rungs * ranks) << "t=" << t;
            const Residency want = expectedResidency(0, at, t);
            const IntervalActivity ia = mc.sampleActivity();
            for (std::uint32_t r = 0; r < ranks; ++r) {
                const RankActivity &a = ia.ranks[r];
                EXPECT_EQ(a.totalTime, t);
                EXPECT_EQ(a.prePowerdownTime, want.pd) << "t=" << t;
                EXPECT_EQ(a.slowPowerdownTime, want.slow) << "t=" << t;
                EXPECT_EQ(a.selfRefreshTime, want.sr) << "t=" << t;
                EXPECT_EQ(a.srSlowClockTime, want.srSlow) << "t=" << t;
                EXPECT_EQ(a.deepPowerdownTime, want.deep) << "t=" << t;
                const auto e = log.enters(r);
                ASSERT_EQ(e.size(), rungs + 1) << "t=" << t;
                EXPECT_EQ(e.back().second,
                          static_cast<RankIdleState>(
                              static_cast<int>(RankIdleState::FastPd) +
                              static_cast<int>(rungs)));
                if (rungs > 0) {
                    EXPECT_EQ(e.back().first, at[rungs - 1]);
                }
            }
        }
    }
    EXPECT_EQ(log.pc.violations(), 0u);
}

TEST(IdleLadderPlan, WakeMidPlanExitsFromReachedRungAndDropsTheRest)
{
    const MemConfig cfg = planConfig(nsToTick(200.0), nsToTick(1000.0),
                                     nsToTick(4000.0), nsToTick(16000.0));
    EventQueue eq;
    MemoryController mc(eq, cfg);
    CommandLog log;
    mc.setCommandObserver(&log);
    mc.setPowerdownMode(PowerdownMode::Ladder);

    // Rank 0 sits in self-refresh (1.2 us .. 5.2 us) when a read wakes
    // it at 3 us.
    const Tick wake = usToTick(3.0);
    eq.runUntil(wake);
    FnClient client([](Tick) {});
    mc.read(rankAddr(mc, 0, 0), 0, &client);
    eq.runUntil(usToTick(60.0));
    // Rungs apply (and are announced) when the rank is next touched.
    const RankActivity a = mc.sampleActivity().ranks[0];

    const auto x = log.exits(0);
    ASSERT_EQ(x.size(), 1u);
    EXPECT_EQ(x[0].at, wake);
    EXPECT_EQ(x[0].doneAt - x[0].at,
              idleExitLatency(RankIdleState::SelfRefresh,
                              TimingParams::at(nominalFreqIndex)));

    // Before the wake: fast-PD at 0, then the two rungs it reached.
    // After it: a fresh walk from the new idle entry, and none of the
    // old plan's later rungs (5.2 us, 21.2 us).
    const auto e = log.enters(0);
    ASSERT_EQ(e.size(), 3u + 5u);
    EXPECT_EQ(e[1], std::make_pair(nsToTick(200.0),
                                   RankIdleState::SlowPd));
    EXPECT_EQ(e[2], std::make_pair(nsToTick(1200.0),
                                   RankIdleState::SelfRefresh));
    const Tick t1 = e[3].first;
    EXPECT_GT(t1, wake);
    EXPECT_EQ(e[3].second, RankIdleState::FastPd);
    const Tick walk[4] = {nsToTick(200.0), nsToTick(1200.0),
                          nsToTick(5200.0), nsToTick(21200.0)};
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(e[4 + k].first, t1 + walk[k]) << "rung " << k;
        EXPECT_EQ(static_cast<int>(e[4 + k].second),
                  static_cast<int>(RankIdleState::SlowPd) + k);
    }
    // The other ranks kept walking their first plan.
    const auto e1 = log.enters(1);
    ASSERT_EQ(e1.size(), 5u);
    EXPECT_EQ(e1[3].first, nsToTick(5200.0));
    EXPECT_EQ(e1[4].first, nsToTick(21200.0));

    EXPECT_EQ(a.selfRefreshTime,
              (wake - nsToTick(1200.0)) +
                  (nsToTick(4000.0)));  // first walk + second walk
    EXPECT_EQ(log.pc.violations(), 0u);
}

TEST(IdleLadderPlan, RelockParkedRankWithPlannedActRefusesChain)
{
    // A rung inside the re-lock window (50 ns < tRELOCK) finds rank 0
    // parked in fast-PD but holding a request whose ACT was planned
    // past the stall: the bank is busy, so the chain is refused and
    // the rank wakes with the parked ranks at the window's end.
    const MemConfig cfg = planConfig(nsToTick(50.0), nsToTick(1000.0),
                                     nsToTick(4000.0), nsToTick(16000.0));
    EventQueue eq;
    MemoryController mc(eq, cfg);
    CommandLog log;
    mc.setCommandObserver(&log);
    mc.setPowerdownMode(PowerdownMode::Ladder);

    bool a_done = false, b_done = false;
    FnClient ca([&](Tick) { a_done = true; });
    FnClient cb([&](Tick) { b_done = true; });
    mc.read(rankAddr(mc, 0, 0), 0, &ca);
    // Run up to the read's burst completion: its trailing precharge is
    // announced then, and finishes later.
    auto pre_seen = [&] {
        for (const DramCmdEvent &ev : log.cmds)
            if (ev.cmd == DramCmd::Pre && ev.rank == 0)
                return true;
        return false;
    };
    while (!pre_seen())
        ASSERT_TRUE(eq.step());
    ASSERT_TRUE(a_done);
    const Tick stall_end = mc.setFrequency(numFreqPoints - 1);
    mc.read(rankAddr(mc, 0, 1), 0, &cb);
    eq.runUntil(stall_end + usToTick(10.0));
    ASSERT_TRUE(b_done);

    // Parked at the re-lock entry, no rung until the window's end.
    Tick parked = MaxTick;
    for (const auto &[t, s] : log.enters(0)) {
        if (t > 0 && t < stall_end && s == RankIdleState::FastPd)
            parked = t;
    }
    ASSERT_NE(parked, MaxTick);
    for (const auto &[t, s] : log.enters(0)) {
        if (t >= parked && t <= stall_end) {
            EXPECT_EQ(s, RankIdleState::FastPd) << "tick " << t;
        }
    }
    bool woke_at_end = false;
    for (const DramCmdEvent &x : log.exits(0))
        woke_at_end |= x.at == stall_end;
    EXPECT_TRUE(woke_at_end);
    EXPECT_EQ(log.pc.violations(), 0u);
}

namespace
{

/**
 * Rank 0's first refresh tick (tREFI / 5 with four ranks) lands on its
 * rung `rung` when the dwells up to it sum to that tick.  Returns the
 * rank's log after 3 us; `plan_first` sets the mode (arming every
 * rank's plan at tick 0) before the refresh engine is armed.
 */
CommandLog
refreshOnRung(int rung, bool plan_first)
{
    const TimingParams &tp = TimingParams::at(nominalFreqIndex);
    const Tick phase = tp.tREFI / 5;
    const Tick d1 = rung == 0 ? phase : nsToTick(200.0);
    const Tick d2 = rung == 0 ? nsToTick(1000.0) : phase - d1;
    const MemConfig cfg =
        planConfig(d1, d2, nsToTick(4000.0), nsToTick(16000.0));
    EventQueue eq;
    MemoryController mc(eq, cfg);
    CommandLog log;
    mc.setCommandObserver(&log);
    if (plan_first) {
        mc.setPowerdownMode(PowerdownMode::Ladder);
        mc.startRefresh();
    } else {
        mc.startRefresh();
        mc.setPowerdownMode(PowerdownMode::Ladder);
    }
    eq.runUntil(usToTick(3.0));
    return log;
}

} // namespace

TEST(IdleLadderPlan, RungOnARefreshTickAppliesFirst)
{
    // A rung due on the tick of a refresh applies before the refresh,
    // whichever of the plan and the refresh engine was armed first.
    const TimingParams &tp = TimingParams::at(nominalFreqIndex);
    const Tick phase = tp.tREFI / 5;
    for (bool plan_first : {false, true}) {
        // Rung 1: the refresh wakes the rank from slow-PD.
        {
            const CommandLog log = refreshOnRung(0, plan_first);
            const auto e = log.enters(0);
            ASSERT_GE(e.size(), 2u);
            EXPECT_EQ(e[1], std::make_pair(phase, RankIdleState::SlowPd));
            const auto x = log.exits(0);
            ASSERT_FALSE(x.empty());
            EXPECT_EQ(x[0].at, phase);
            EXPECT_EQ(x[0].doneAt - x[0].at,
                      idleExitLatency(RankIdleState::SlowPd, tp));
            EXPECT_EQ(log.pc.violations(), 0u);
        }
        // Rung 2: the rank self-refreshes by the refresh tick, so the
        // refresh is skipped and the rank stays down.
        {
            const CommandLog log = refreshOnRung(1, plan_first);
            const auto e = log.enters(0);
            ASSERT_EQ(e.size(), 3u);
            EXPECT_EQ(e[2],
                      std::make_pair(phase, RankIdleState::SelfRefresh));
            EXPECT_TRUE(log.exits(0).empty());
            for (const DramCmdEvent &ev : log.cmds)
                EXPECT_FALSE(ev.cmd == DramCmd::Refresh && ev.rank == 0)
                    << "refresh at tick " << ev.at;
            EXPECT_EQ(log.pc.violations(), 0u);
        }
    }
}

TEST(IdleLadderPlan, RungOnAReadTickAppliesFirst)
{
    // A read lands on rung 2's tick (1.2 us).  Whether it was
    // scheduled before rung 1 (200 ns) or after, the rung applies
    // first and the read wakes the rank from self-refresh.
    const TimingParams &tp = TimingParams::at(nominalFreqIndex);
    const Tick rung1 = nsToTick(200.0);
    const Tick rung2 = nsToTick(1200.0);
    for (const Tick sched_at : {Tick(0), rung1 - 1, rung1 + 1}) {
        const MemConfig cfg =
            planConfig(nsToTick(200.0), nsToTick(1000.0),
                       nsToTick(4000.0), nsToTick(16000.0));
        EventQueue eq;
        MemoryController mc(eq, cfg);
        CommandLog log;
        mc.setCommandObserver(&log);
        mc.setPowerdownMode(PowerdownMode::Ladder);
        FnClient client([](Tick) {});
        eq.runUntil(sched_at);
        eq.schedule(rung2, [&] { mc.read(rankAddr(mc, 0, 0), 0, &client); });
        eq.runUntil(usToTick(3.0));
        const auto x = log.exits(0);
        ASSERT_FALSE(x.empty());
        EXPECT_EQ(x[0].at, rung2);
        EXPECT_EQ(x[0].doneAt - x[0].at,
                  idleExitLatency(RankIdleState::SelfRefresh, tp))
            << "read scheduled at " << sched_at;
        EXPECT_EQ(log.pc.violations(), 0u);
    }
}

TEST(PageMigrator, ZeroIntervalIsFatal)
{
    // A zero period would re-arm the consolidation pass at one tick
    // forever, so the run would never end.
    MemConfig cfg;
    cfg.ladder.migrate = true;
    cfg.ladder.migrateInterval = 0;
    EXPECT_THROW(PageMigrator{cfg}, FatalError);
}
