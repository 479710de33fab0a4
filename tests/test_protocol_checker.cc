/**
 * @file
 * Unit tests for the online DDR3 protocol checker: direct-feed
 * detection of each rule, strict-mode abort, and full-System runs with
 * the checker attached — including runs whose policy re-locks the
 * memory frequency mid-run, the case the checker exists to guard.
 */

#include <gtest/gtest.h>

#include "check/protocol_checker.hh"
#include "common/log.hh"
#include "dram/rank.hh"
#include "harness/experiment.hh"

using namespace memscale;

namespace
{

const TimingParams &tp0 = TimingParams::at(0);

DramCmdEvent
act(Tick at, std::uint32_t bank = 0, std::uint64_t row = 7,
    std::uint32_t rank = 0)
{
    DramCmdEvent ev;
    ev.cmd = DramCmd::Act;
    ev.at = at;
    ev.doneAt = at;
    ev.rank = rank;
    ev.bank = bank;
    ev.row = row;
    return ev;
}

DramCmdEvent
pre(Tick at, std::uint32_t bank = 0)
{
    DramCmdEvent ev;
    ev.cmd = DramCmd::Pre;
    ev.at = at;
    ev.doneAt = at + tp0.tRP;
    ev.rank = 0;
    ev.bank = bank;
    return ev;
}

DramCmdEvent
read(Tick at, std::uint32_t bank = 0, std::uint64_t row = 7,
     Tick bus_free = 0)
{
    DramCmdEvent ev;
    ev.cmd = DramCmd::Read;
    ev.at = at;
    ev.rank = 0;
    ev.bank = bank;
    ev.row = row;
    ev.burstStart = std::max(at + tp0.tCL, bus_free);
    ev.burstEnd = ev.burstStart + tp0.tBURST;
    ev.doneAt = ev.burstEnd;
    return ev;
}

/** Checker with the nominal params installed, strictness off. */
ProtocolChecker
fresh()
{
    ProtocolChecker pc(false);
    pc.onTimingChange(0, 0, tp0);
    return pc;
}

std::string
firstRule(const ProtocolChecker &pc)
{
    return pc.samples().empty() ? "" : pc.samples().front().rule;
}

SystemConfig
smallConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 1'000'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.protocolCheck = true;
    return cfg;
}

} // namespace

TEST(ProtocolChecker, LegalSequenceIsClean)
{
    ProtocolChecker pc = fresh();
    Tick t = 10000;
    pc.onCommand(act(t));
    pc.onCommand(read(t + tp0.tRCD));
    Tick p = t + tp0.tRAS;
    pc.onCommand(pre(p));
    pc.onCommand(act(p + tp0.tRP));
    EXPECT_EQ(pc.violations(), 0u);
    EXPECT_EQ(pc.commandsChecked(), 4u);
}

TEST(ProtocolChecker, DetectsTrcdViolation)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(act(10000));
    pc.onCommand(read(10000 + tp0.tRCD - 1));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "tRCD");
}

TEST(ProtocolChecker, DetectsTrpViolation)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(act(10000));
    Tick p = 10000 + tp0.tRAS;
    pc.onCommand(pre(p));
    pc.onCommand(act(p + tp0.tRP - 1));
    EXPECT_GE(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "tRP");
}

TEST(ProtocolChecker, DetectsTrasViolation)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(act(10000));
    pc.onCommand(pre(10000 + tp0.tRAS - 1));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "tRAS");
}

TEST(ProtocolChecker, DetectsTrcViolation)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(act(10000));
    Tick p = 10000 + tp0.tRAS;
    pc.onCommand(pre(p));
    // tRP satisfied but the same-bank ACT-to-ACT gap is one tick
    // short of tRC = tRAS + tRP.
    pc.onCommand(act(10000 + tp0.tRC() - 1));
    bool saw_trc = false;
    for (const auto &v : pc.samples())
        saw_trc |= v.rule == "tRC";
    EXPECT_TRUE(saw_trc);
}

TEST(ProtocolChecker, DetectsTrrdViolation)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(act(100000, 0));
    pc.onCommand(act(100000 + tp0.tRRD - 1, 1));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "tRRD");
}

TEST(ProtocolChecker, DetectsTrrdViolationAnnouncedOutOfOrder)
{
    // Cross-bank announcements may arrive out of tick order; the
    // checker must still see the too-small gap.
    ProtocolChecker pc = fresh();
    pc.onCommand(act(100000 + tp0.tRRD - 1, 1));
    pc.onCommand(act(100000, 0));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "tRRD");
}

TEST(ProtocolChecker, DetectsTfawViolation)
{
    ProtocolChecker pc = fresh();
    // Spacing legal under tRRD but five activates inside tFAW.
    const Tick gap = tp0.tRRD + 1000;
    ASSERT_LT(4 * gap, tp0.tFAW);
    for (std::uint32_t i = 0; i < 5; ++i)
        pc.onCommand(act(500000 + i * gap, i, 7));
    EXPECT_GE(pc.violations(), 1u);
    bool saw_tfaw = false;
    for (const auto &v : pc.samples())
        saw_tfaw |= v.rule == "tFAW";
    EXPECT_TRUE(saw_tfaw);
}

TEST(ProtocolChecker, DetectsCommandInsideRefreshWindow)
{
    ProtocolChecker pc = fresh();
    DramCmdEvent ref;
    ref.cmd = DramCmd::Refresh;
    ref.at = 1000000;
    ref.doneAt = ref.at + tp0.tRFC;
    pc.onCommand(ref);
    pc.onCommand(act(ref.at + tp0.tRFC / 2));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "refresh-window");
}

TEST(ProtocolChecker, DetectsActAnnouncedBeforeRefreshWindow)
{
    // The backward direction: the ACT was announced first, then a
    // refresh window lands on top of it.
    ProtocolChecker pc = fresh();
    pc.onCommand(act(1000000));
    DramCmdEvent ref;
    ref.cmd = DramCmd::Refresh;
    ref.at = 1000000 - 1000;
    ref.doneAt = ref.at + tp0.tRFC;
    pc.onCommand(ref);
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "refresh-window");
}

TEST(ProtocolChecker, DetectsCommandWhilePoweredDown)
{
    ProtocolChecker pc = fresh();
    DramCmdEvent pde;
    pde.cmd = DramCmd::PowerdownEnter;
    pde.at = pde.doneAt = 50000;
    pde.pdState = static_cast<std::uint8_t>(RankIdleState::FastPd);
    pc.onCommand(pde);
    pc.onCommand(act(60000));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "powerdown");
}

TEST(ProtocolChecker, DetectsCommandBeforePowerdownExitLatency)
{
    ProtocolChecker pc = fresh();
    DramCmdEvent pde;
    pde.cmd = DramCmd::PowerdownEnter;
    pde.at = pde.doneAt = 50000;
    pde.pdState = static_cast<std::uint8_t>(RankIdleState::FastPd);
    pc.onCommand(pde);
    DramCmdEvent pdx;
    pdx.cmd = DramCmd::PowerdownExit;
    pdx.at = 60000;
    pdx.doneAt = 60000 + tp0.tXP;
    pc.onCommand(pdx);
    pc.onCommand(act(60000 + tp0.tXP - 1));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "powerdown-exit");
}

TEST(ProtocolChecker, TimingChangeOutOfOrderIsAViolation)
{
    // A channel announces timing changes in effective-tick order; one
    // that goes back in time (a resume from a damaged checker section
    // can produce it) is recorded instead of aborting the run.
    ProtocolChecker pc = fresh();
    pc.onTimingChange(0, 500000, TimingParams::at(numFreqPoints - 1));
    pc.onTimingChange(0, 400000, tp0);
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "timing-order");
}

TEST(ProtocolChecker, DetectsCommandInsideRelockWindow)
{
    ProtocolChecker pc = fresh();
    DramCmdEvent rl;
    rl.cmd = DramCmd::Relock;
    rl.at = 200000;
    rl.doneAt = rl.at + tp0.tRELOCK;
    pc.onCommand(rl);
    pc.onCommand(act(rl.at + 1000));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "relock-window");
    EXPECT_EQ(pc.relocksSeen(), 1u);
}

TEST(ProtocolChecker, DetectsCasOnClosedBankAndRowMismatch)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(read(10000, 3, 7));
    EXPECT_EQ(firstRule(pc), "cas-closed-bank");

    ProtocolChecker pc2 = fresh();
    pc2.onCommand(act(10000, 3, 7));
    pc2.onCommand(read(10000 + tp0.tRCD, 3, 8));
    EXPECT_EQ(firstRule(pc2), "cas-row-mismatch");
}

TEST(ProtocolChecker, DetectsBusOverlap)
{
    // At the slowest grid point tBURST (20 ns) exceeds tRRD (5 ns),
    // so back-to-back CAS bursts on different banks can overlap on
    // the bus while every bank-level timing is satisfied.
    const TimingParams &tp = TimingParams::at(numFreqPoints - 1);
    ProtocolChecker pc(false);
    pc.onTimingChange(0, 0, tp);
    pc.onCommand(act(10000, 0));
    pc.onCommand(act(10000 + tp.tRRD, 1));
    DramCmdEvent r1 = read(10000 + tp.tRCD, 0);
    r1.burstStart = r1.at + tp.tCL;
    r1.burstEnd = r1.burstStart + tp.tBURST;
    r1.doneAt = r1.burstEnd;
    pc.onCommand(r1);
    // Legal tRCD/tCL for bank 1, but its burst starts mid-way through
    // bank 0's transfer.
    DramCmdEvent r2 = read(10000 + tp.tRRD + tp.tRCD, 1);
    r2.burstStart = r2.at + tp.tCL;
    r2.burstEnd = r2.burstStart + tp.tBURST;
    r2.doneAt = r2.burstEnd;
    ASSERT_LT(r2.burstStart, r1.burstEnd);
    pc.onCommand(r2);
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "bus-overlap");
}

TEST(ProtocolChecker, AppliesParamsInEffectAtIssueTick)
{
    // A gap legal at the tick where the command issues must be judged
    // by the parameters in effect *there*, not by the attach-time set.
    ProtocolChecker pc = fresh();
    const TimingParams &slow = TimingParams::at(numFreqPoints - 1);

    // Before the switch: burst of tp0.tBURST is legal.
    pc.onCommand(act(10000));
    pc.onCommand(read(10000 + tp0.tRCD));
    EXPECT_EQ(pc.violations(), 0u);

    // Re-lock to the slowest point, effective at 10 ms.
    Tick eff = msToTick(10.0);
    DramCmdEvent rl;
    rl.cmd = DramCmd::Relock;
    rl.at = eff - tp0.tRELOCK;
    rl.doneAt = eff;
    pc.onCommand(rl);
    pc.onTimingChange(0, eff, slow);

    // After the switch a burst of the *old* length is a violation...
    pc.onCommand(pre(eff, 0));
    pc.onCommand(act(eff + tp0.tRP));
    DramCmdEvent r = read(eff + tp0.tRP + slow.tRCD);
    r.burstStart = r.at + slow.tCL;
    r.burstEnd = r.burstStart + tp0.tBURST;   // stale length
    r.doneAt = r.burstEnd;
    pc.onCommand(r);
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "burst-length");

    // ...and the correct slow-grid burst is clean.
    ProtocolChecker pc2 = fresh();
    pc2.onTimingChange(0, eff, slow);
    pc2.onCommand(act(eff + 1000));
    DramCmdEvent r2 = read(eff + 1000 + slow.tRCD);
    r2.burstStart = r2.at + slow.tCL;
    r2.burstEnd = r2.burstStart + slow.tBURST;
    r2.doneAt = r2.burstEnd;
    pc2.onCommand(r2);
    EXPECT_EQ(pc2.violations(), 0u);
}

TEST(ProtocolChecker, StrictModeAbortsOnFirstViolation)
{
    ProtocolChecker pc(true);
    pc.onTimingChange(0, 0, tp0);
    pc.onCommand(act(10000));
    EXPECT_THROW(pc.onCommand(read(10000 + tp0.tRCD - 1)), FatalError);
}

TEST(ProtocolChecker, ViolationStringCarriesProvenance)
{
    ProtocolChecker pc = fresh();
    pc.onCommand(act(10000, 2, 7, 1));
    DramCmdEvent r = read(10000 + tp0.tRCD - 1, 2, 7);
    r.rank = 1;
    pc.onCommand(r);
    ASSERT_EQ(pc.samples().size(), 1u);
    std::string s = pc.samples().front().str();
    EXPECT_NE(s.find("tRCD"), std::string::npos);
    EXPECT_NE(s.find("rank 1"), std::string::npos);
    EXPECT_NE(s.find("bank 2"), std::string::npos);
    EXPECT_NE(s.find("RD"), std::string::npos);
}

// --- Full-system validation -------------------------------------------

TEST(ProtocolCheckerSystem, BaselineRunIsClean)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    EXPECT_GT(base.commandsChecked, 1000u);
    EXPECT_EQ(base.protocolViolations, 0u)
        << (base.protocolViolationSamples.empty()
                ? ""
                : base.protocolViolationSamples.front());
}

TEST(ProtocolCheckerSystem, MemScaleRunWithFrequencyTransitionsIsClean)
{
    // The acceptance case: the checker validates tRCD/tRP/tRAS/tRRD/
    // tFAW/refresh across *mid-run frequency transitions* driven by
    // the real MemScale policy.
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    runBaseline(cfg, rest);
    RunResult ms = runPolicy(cfg, "memscale", rest);
    ASSERT_GT(ms.counters.freqTransitions, 0u);
    EXPECT_GT(ms.commandsChecked, 1000u);
    EXPECT_EQ(ms.protocolViolations, 0u)
        << (ms.protocolViolationSamples.empty()
                ? ""
                : ms.protocolViolationSamples.front());
}

TEST(ProtocolCheckerSystem, PowerdownPoliciesAreClean)
{
    for (const char *policy : {"fastpd", "slowpd", "srpd"}) {
        SystemConfig cfg = smallConfig("ILP1");
        Watts rest = 0.0;
        runBaseline(cfg, rest);
        RunResult r = runPolicy(cfg, policy, rest);
        EXPECT_EQ(r.protocolViolations, 0u)
            << policy << ": "
            << (r.protocolViolationSamples.empty()
                    ? ""
                    : r.protocolViolationSamples.front());
    }
}

TEST(ProtocolCheckerSystem, CheckerDoesNotPerturbResults)
{
    // Attaching the checker must not change simulation behaviour.
    SystemConfig cfg = smallConfig("MID2");
    cfg.protocolCheck = false;
    Watts rest1 = 0.0;
    RunResult plain = runBaseline(cfg, rest1);
    cfg.protocolCheck = true;
    Watts rest2 = 0.0;
    RunResult checked = runBaseline(cfg, rest2);
    EXPECT_EQ(plain.runtime, checked.runtime);
    EXPECT_EQ(plain.counters.reads, checked.counters.reads);
    EXPECT_EQ(plain.counters.writes, checked.counters.writes);
    EXPECT_EQ(plain.energy.total(), checked.energy.total());
}

// --- Idle-ladder suite ------------------------------------------------
//
// The deep rungs (self-refresh, SR with slow clock, deep powerdown)
// each carry their own datasheet exit latency and refresh semantics;
// these tests feed the checker hand-built CKE sequences for every
// rung and pin the rules the ladder relies on.

namespace
{

DramCmdEvent
pde(Tick at, RankIdleState state)
{
    DramCmdEvent ev;
    ev.cmd = DramCmd::PowerdownEnter;
    ev.at = ev.doneAt = at;
    ev.pdState = static_cast<std::uint8_t>(state);
    return ev;
}

DramCmdEvent
pdx(Tick at, Tick exit_latency)
{
    DramCmdEvent ev;
    ev.cmd = DramCmd::PowerdownExit;
    ev.at = at;
    ev.doneAt = at + exit_latency;
    return ev;
}

const RankIdleState AllRungs[] = {
    RankIdleState::FastPd, RankIdleState::SlowPd,
    RankIdleState::SelfRefresh, RankIdleState::SrSlowClock,
    RankIdleState::DeepPd};

} // namespace

TEST(ProtocolCheckerLadder, EnforcesExitLatencyPerRung)
{
    for (RankIdleState s : AllRungs) {
        const Tick need = idleExitLatency(s, tp0);
        ASSERT_GT(need, 0u) << rankIdleStateName(s);

        // One tick short of the datasheet latency: rejected.
        ProtocolChecker pc = fresh();
        pc.onCommand(pde(100000, s));
        pc.onCommand(pdx(200000, need - 1));
        EXPECT_EQ(pc.violations(), 1u) << rankIdleStateName(s);
        EXPECT_EQ(firstRule(pc), "pd-exit-latency")
            << rankIdleStateName(s);

        // The exact latency: clean, and the rank is usable only at
        // the advertised ready tick.
        ProtocolChecker ok = fresh();
        ok.onCommand(pde(100000, s));
        ok.onCommand(pdx(200000, need));
        ok.onCommand(act(200000 + need));
        EXPECT_EQ(ok.violations(), 0u) << rankIdleStateName(s);

        // An ACT one tick before ready still trips powerdown-exit.
        ProtocolChecker early = fresh();
        early.onCommand(pde(100000, s));
        early.onCommand(pdx(200000, need));
        early.onCommand(act(200000 + need - 1));
        EXPECT_EQ(early.violations(), 1u) << rankIdleStateName(s);
        EXPECT_EQ(firstRule(early), "powerdown-exit")
            << rankIdleStateName(s);
    }
}

TEST(ProtocolCheckerLadder, DeeperRungsDemandLongerExits)
{
    // The ladder is only a ladder if each rung's wake-up cost grows:
    // tXP < tXPDLL < tXS < tXSDLL < tXDP.
    Tick prev = 0;
    for (RankIdleState s : AllRungs) {
        Tick need = idleExitLatency(s, tp0);
        EXPECT_GT(need, prev) << rankIdleStateName(s);
        prev = need;
    }
}

TEST(ProtocolCheckerLadder, RejectsExternalRefreshDuringSelfRefresh)
{
    // A self-refreshing rank refreshes internally; an external REF is
    // a protocol error distinct from command-while-CKE-low — for
    // every self-refreshing rung, but NOT for the shallow PD rungs.
    for (RankIdleState s : AllRungs) {
        ProtocolChecker pc = fresh();
        pc.onCommand(pde(100000, s));
        DramCmdEvent ref;
        ref.cmd = DramCmd::Refresh;
        ref.at = 150000;
        ref.doneAt = ref.at + tp0.tRFC;
        pc.onCommand(ref);
        EXPECT_EQ(pc.violations(), 1u) << rankIdleStateName(s);
        EXPECT_EQ(firstRule(pc), selfRefreshing(s)
                                     ? "refresh-in-selfrefresh"
                                     : "powerdown")
            << rankIdleStateName(s);
    }
}

TEST(ProtocolCheckerLadder, SelfRefreshSuspendsRefreshStarvationClock)
{
    // Long CKE-low residencies in self-refresh must not trip the
    // refresh-starvation watchdog: the rank refreshed itself.
    ProtocolChecker pc = fresh();
    DramCmdEvent ref;
    ref.cmd = DramCmd::Refresh;
    ref.at = 100000;
    ref.doneAt = ref.at + tp0.tRFC;
    pc.onCommand(ref);

    Tick enter = ref.doneAt + 1000;
    pc.onCommand(pde(enter, RankIdleState::SelfRefresh));
    // Dwell 100x the starvation horizon, then exit and refresh.
    Tick exit = enter + 100 * 9 * tp0.tREFI;
    Tick need = idleExitLatency(RankIdleState::SelfRefresh, tp0);
    pc.onCommand(pdx(exit, need));
    DramCmdEvent ref2 = ref;
    ref2.at = exit + need;
    ref2.doneAt = ref2.at + tp0.tRFC;
    pc.onCommand(ref2);
    EXPECT_EQ(pc.violations(), 0u)
        << (pc.samples().empty() ? "" : pc.samples().front().str());
}

TEST(ProtocolCheckerLadder, AllowsOnlyStrictlyDeeperDemotions)
{
    // Walking down rung by rung without an intervening exit is the
    // adaptive-demotion fast path and must be clean...
    ProtocolChecker pc = fresh();
    Tick t = 100000;
    pc.onCommand(pde(t, RankIdleState::FastPd));
    pc.onCommand(pde(t + 1000, RankIdleState::SelfRefresh));
    pc.onCommand(pde(t + 2000, RankIdleState::SrSlowClock));
    pc.onCommand(pde(t + 3000, RankIdleState::DeepPd));
    EXPECT_EQ(pc.violations(), 0u);

    // ...the exit must then pay the *deepest* rung's latency...
    Tick deep = idleExitLatency(RankIdleState::DeepPd, tp0);
    pc.onCommand(pdx(t + 10000, deep - 1));
    EXPECT_EQ(pc.violations(), 1u);
    EXPECT_EQ(firstRule(pc), "pd-exit-latency");

    // ...and re-entering the same or a shallower rung mid-residency
    // (a "promotion" without CKE ever rising) is illegal.
    for (RankIdleState again :
         {RankIdleState::SelfRefresh, RankIdleState::FastPd}) {
        ProtocolChecker up = fresh();
        up.onCommand(pde(100000, RankIdleState::SelfRefresh));
        up.onCommand(pde(101000, again));
        EXPECT_EQ(up.violations(), 1u) << rankIdleStateName(again);
        EXPECT_EQ(firstRule(up), "pd-transition")
            << rankIdleStateName(again);
    }
}

TEST(ProtocolCheckerLadder, RejectsActDuringDeepResidency)
{
    // Deep powerdown -> ACT without any exit announced: the rank is
    // simply powered down, however deep the rung.
    for (RankIdleState s :
         {RankIdleState::SelfRefresh, RankIdleState::DeepPd}) {
        ProtocolChecker pc = fresh();
        pc.onCommand(pde(100000, s));
        pc.onCommand(act(150000));
        EXPECT_EQ(pc.violations(), 1u) << rankIdleStateName(s);
        EXPECT_EQ(firstRule(pc), "powerdown") << rankIdleStateName(s);
    }

    // Exit without a matching enter is its own transition error.
    ProtocolChecker orphan = fresh();
    orphan.onCommand(pdx(100000, tp0.tXP));
    EXPECT_EQ(orphan.violations(), 1u);
    EXPECT_EQ(firstRule(orphan), "pd-transition");
}

TEST(ProtocolCheckerLadder, SelfRefreshAcrossFrequencyTransition)
{
    // A rank that entered self-refresh *before* a frequency re-lock
    // may legally sleep straight through the quiescence window
    // (self-refresh needs no external clock).  Its eventual exit is
    // NOT relock-exempt — only force-parked ranks (entered inside the
    // window) are — and must pay the exit latency under the *new*
    // parameters.
    ProtocolChecker pc = fresh();
    const TimingParams &slow = TimingParams::at(numFreqPoints - 1);

    // Slow-clock self-refresh: its tXSDLL exit is counted in DRAM
    // clocks, so the re-lock visibly changes the required latency.
    Tick enter = 100000;
    pc.onCommand(pde(enter, RankIdleState::SrSlowClock));

    Tick eff = msToTick(1.0);
    DramCmdEvent rl;
    rl.cmd = DramCmd::Relock;
    rl.at = eff - tp0.tRELOCK;
    rl.doneAt = eff;
    pc.onCommand(rl);
    pc.onTimingChange(0, eff, slow);

    // Exit well after the window: judged by the slow grid's tXSDLL.
    Tick need = idleExitLatency(RankIdleState::SrSlowClock, slow);
    ASSERT_GT(need, idleExitLatency(RankIdleState::SrSlowClock, tp0));
    Tick exit = eff + 50000;

    ProtocolChecker shortpc = fresh();
    shortpc.onCommand(pde(enter, RankIdleState::SrSlowClock));
    shortpc.onCommand(rl);
    shortpc.onTimingChange(0, eff, slow);
    shortpc.onCommand(pdx(
        exit, idleExitLatency(RankIdleState::SrSlowClock, tp0)));
    EXPECT_EQ(shortpc.violations(), 1u);
    EXPECT_EQ(firstRule(shortpc), "pd-exit-latency");

    pc.onCommand(pdx(exit, need));
    pc.onCommand(act(exit + need));
    EXPECT_EQ(pc.violations(), 0u)
        << (pc.samples().empty() ? "" : pc.samples().front().str());
}

TEST(ProtocolCheckerSystem, LadderPoliciesAreClean)
{
    // Full-system sweep over the new rungs: static deep modes and the
    // adaptive demotion ladder, with the checker attached.
    for (const char *policy : {"srslowpd", "deeppd", "ladder"}) {
        SystemConfig cfg = smallConfig("ILP1");
        Watts rest = 0.0;
        runBaseline(cfg, rest);
        RunResult r = runPolicy(cfg, policy, rest);
        if (std::string(policy) == "ladder") {
            EXPECT_GT(r.counters.pdDemotions, 0u);
        }
        EXPECT_EQ(r.protocolViolations, 0u)
            << policy << ": "
            << (r.protocolViolationSamples.empty()
                    ? ""
                    : r.protocolViolationSamples.front());
    }
}

TEST(ProtocolCheckerSystem, LadderWithFrequencyTransitionsIsClean)
{
    // The composed case the tentpole exists for: adaptive demotion +
    // consolidation migrations + MemScale DVFS re-locks, all under
    // the checker, including transitions straddling frequency
    // changes.
    SystemConfig cfg = smallConfig("MID1");
    cfg.mem.ladder.migrate = true;
    Watts rest = 0.0;
    runBaseline(cfg, rest);
    RunResult r = runPolicy(cfg, "memscale-ladder", rest);
    ASSERT_GT(r.counters.freqTransitions, 0u);
    EXPECT_GT(r.counters.pdDemotions, 0u);
    EXPECT_EQ(r.protocolViolations, 0u)
        << (r.protocolViolationSamples.empty()
                ? ""
                : r.protocolViolationSamples.front());
}
