/**
 * @file
 * Unit tests for DDR3 timing parameters and the rank state machine:
 * frequency scaling laws, tRRD/tFAW enforcement, background-state time
 * integration, powerdown accounting.
 */

#include <gtest/gtest.h>

#include "dram/rank.hh"
#include "dram/timing.hh"

using namespace memscale;

TEST(Timing, GridIsComplete)
{
    ASSERT_EQ(numFreqPoints, 10u);
    EXPECT_EQ(busFreqGridMHz.front(), 800u);
    EXPECT_EQ(busFreqGridMHz.back(), 200u);
    for (FreqIndex i = 0; i < numFreqPoints; ++i)
        EXPECT_EQ(TimingParams::at(i).busMHz, busFreqGridMHz[i]);
}

TEST(Timing, Nominal800)
{
    const TimingParams &tp = TimingParams::at(nominalFreqIndex);
    EXPECT_EQ(tp.tCK, 1250u);
    EXPECT_EQ(tp.tCKMC, 625u);             // MC at 2x bus
    EXPECT_EQ(tp.tBURST, 4 * 1250u);       // 4 bus cycles
    EXPECT_EQ(tp.tMC, 5 * 625u);           // 5 MC cycles
    EXPECT_EQ(tp.tRCD, nsToTick(15.0));
    EXPECT_EQ(tp.tRP, nsToTick(15.0));
    EXPECT_EQ(tp.tCL, nsToTick(15.0));
    EXPECT_EQ(tp.tRAS, nsToTick(35.0));    // 28 cycles @ 800
    EXPECT_EQ(tp.tFAW, nsToTick(25.0));    // 20 cycles @ 800
    EXPECT_EQ(tp.tXP, nsToTick(6.0));
    EXPECT_EQ(tp.tXPDLL, nsToTick(24.0));
}

TEST(Timing, OnlyInterfaceParamsScale)
{
    const TimingParams &hi = TimingParams::at(0);    // 800
    const TimingParams &lo = TimingParams::at(9);    // 200
    // Device-internal params are wall-clock fixed.
    EXPECT_EQ(hi.tRCD, lo.tRCD);
    EXPECT_EQ(hi.tRP, lo.tRP);
    EXPECT_EQ(hi.tCL, lo.tCL);
    EXPECT_EQ(hi.tRAS, lo.tRAS);
    EXPECT_EQ(hi.tRFC, lo.tRFC);
    // Interface params scale linearly: 4x slower at 200 MHz.
    EXPECT_EQ(lo.tBURST, 4 * hi.tBURST);
    EXPECT_EQ(lo.tMC, 4 * hi.tMC);
}

TEST(Timing, RelockPenalty)
{
    // 512 cycles + 28 ns.
    const TimingParams &tp = TimingParams::at(0);
    EXPECT_EQ(tp.tRELOCK, 512 * tp.tCK + nsToTick(28.0));
}

TEST(Timing, FreqIndexLookup)
{
    EXPECT_EQ(freqIndexForMHz(800), 0u);
    EXPECT_EQ(freqIndexForMHz(467), 5u);
    EXPECT_EQ(freqIndexForMHz(400), 6u);
    EXPECT_EQ(freqIndexForMHz(210), 9u);
    EXPECT_EQ(freqIndexForMHz(100), 9u);   // clamps to slowest
    EXPECT_EQ(freqIndexForMHz(750), 1u);   // next grid point below
}

TEST(Rank, TrrdEnforced)
{
    Rank r;
    const TimingParams &tp = TimingParams::at(0);
    EXPECT_EQ(r.earliestAct(1000, tp), 1000u);
    r.recordAct(1000);
    EXPECT_EQ(r.earliestAct(1000, tp), 1000 + tp.tRRD);
    EXPECT_EQ(r.earliestAct(1000 + 2 * tp.tRRD, tp),
              1000 + 2 * tp.tRRD);
}

TEST(Rank, TfawEnforced)
{
    Rank r;
    const TimingParams &tp = TimingParams::at(0);
    // Four ACTs packed at tRRD spacing; the fifth must wait for the
    // first to age out of the tFAW window.
    Tick t = 0;
    for (int i = 0; i < 4; ++i) {
        t = r.earliestAct(t, tp);
        r.recordAct(t);
    }
    Tick fifth = r.earliestAct(t, tp);
    EXPECT_GE(fifth, tp.tFAW);   // first ACT was at 0
}

TEST(Rank, OutOfOrderActRecording)
{
    Rank r;
    const TimingParams &tp = TimingParams::at(0);
    r.recordAct(10000);
    r.recordAct(5000);   // planned out of order
    // tRRD measured from the latest ACT (10000), not insertion order.
    EXPECT_EQ(r.earliestAct(10000, tp), 10000 + tp.tRRD);
}

TEST(Rank, BackgroundIntegration)
{
    Rank r;
    // [0,100) precharge standby, [100,300) active, [300,600) precharge
    // powerdown.
    r.openAt(100);
    r.closeAt(300);
    r.setIdleState(300, RankIdleState::FastPd);
    const RankActivity &a = r.sample(600);
    EXPECT_EQ(a.preStandbyTime, 100u);
    EXPECT_EQ(a.actStandbyTime, 200u);
    EXPECT_EQ(a.prePowerdownTime, 300u);
    EXPECT_EQ(a.slowPowerdownTime, 0u);
    EXPECT_EQ(a.totalTime, 600u);
    EXPECT_NEAR(a.preFraction(), 400.0 / 600.0, 1e-12);
}

TEST(Rank, SlowPowerdownTracked)
{
    Rank r;
    r.setIdleState(0, RankIdleState::SlowPd);
    r.sample(500);
    r.setIdleState(500, RankIdleState::Up);
    const RankActivity &a = r.sample(500);
    EXPECT_EQ(a.prePowerdownTime, 500u);
    EXPECT_EQ(a.slowPowerdownTime, 500u);
    EXPECT_EQ(a.pdExits, 1u);
}

TEST(Rank, NestedBankOpens)
{
    Rank r;
    r.openAt(0);
    r.openAt(50);
    r.closeAt(100);
    // Still one bank open: remains "active".
    const RankActivity &a = r.sample(200);
    EXPECT_EQ(a.actStandbyTime, 200u);
    EXPECT_EQ(a.preStandbyTime, 0u);
}

TEST(Rank, BurstAndOpAccounting)
{
    Rank r;
    r.noteBurst(false, 5000);
    r.noteBurst(true, 5000);
    r.openAt(0);
    r.noteRefresh();
    const RankActivity &a = r.sample(100);
    EXPECT_EQ(a.readBursts, 1u);
    EXPECT_EQ(a.writeBursts, 1u);
    EXPECT_EQ(a.readBurstTime, 5000u);
    EXPECT_EQ(a.writeBurstTime, 5000u);
    EXPECT_EQ(a.actPreCount, 1u);
    EXPECT_EQ(a.refreshes, 1u);
}

TEST(Rank, ActivityDiff)
{
    Rank r;
    r.openAt(100);
    RankActivity s0 = r.sample(200);
    r.closeAt(400);
    RankActivity s1 = r.sample(600);
    RankActivity d = s1 - s0;
    EXPECT_EQ(d.totalTime, 400u);
    EXPECT_EQ(d.actStandbyTime, 200u);
    EXPECT_EQ(d.preStandbyTime, 200u);
}

TEST(Rank, RedundantPowerdownIsNoop)
{
    Rank r;
    r.setIdleState(100, RankIdleState::FastPd);
    r.setIdleState(200, RankIdleState::FastPd);   // no-op
    r.setIdleState(300, RankIdleState::Up);
    r.setIdleState(400, RankIdleState::Up);         // no-op
    const RankActivity &a = r.sample(400);
    EXPECT_EQ(a.pdExits, 1u);
    EXPECT_EQ(a.prePowerdownTime, 200u);
}
