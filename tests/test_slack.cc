/**
 * @file
 * Slack-tracker tests: Eq. 1 accumulation, feasibility algebra,
 * negative-slack repayment, epoch banking and the started flag.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "memscale/energy_model.hh"
#include "memscale/slack.hh"

using namespace memscale;

TEST(Slack, StartsAtZero)
{
    SlackTracker s;
    s.start(4, 0.10);
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(s.slack(c), 0.0);
    EXPECT_DOUBLE_EQ(s.gamma(), 0.10);
}

TEST(Slack, AccumulatesTargetMinusActual)
{
    SlackTracker s;
    s.start(1, 0.10);
    // Work worth 1 ms at max frequency, executed in exactly 1.1 ms:
    // on target, slack unchanged.
    s.update(0, 1.0e-3, 1.1e-3);
    EXPECT_NEAR(s.slack(0), 0.0, 1e-15);
    // Executed faster than target: positive slack.
    s.update(0, 1.0e-3, 1.0e-3);
    EXPECT_NEAR(s.slack(0), 0.1e-3, 1e-12);
    // Executed slower than target: slack decreases.
    s.update(0, 1.0e-3, 1.3e-3);
    EXPECT_NEAR(s.slack(0), -0.1e-3, 1e-12);
}

TEST(Slack, FeasibilityAtZeroSlack)
{
    SlackTracker s;
    s.start(1, 0.10);
    double tpi_max = 1e-9;
    // Up to 10% slower is feasible; beyond is not.
    EXPECT_TRUE(s.feasible(0, tpi_max * 1.10, tpi_max, 1e-3));
    EXPECT_TRUE(s.feasible(0, tpi_max * 1.0999, tpi_max, 1e-3));
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.12, tpi_max, 1e-3));
}

TEST(Slack, PositiveSlackRelaxesTarget)
{
    SlackTracker s;
    s.start(1, 0.10);
    s.update(0, 2.0e-3, 1.0e-3);   // banked 1.2 ms of slack
    double tpi_max = 1e-9;
    // With slack larger than the next epoch, anything goes.
    EXPECT_TRUE(s.feasible(0, tpi_max * 5.0, tpi_max, 1e-3));
}

TEST(Slack, NegativeSlackTightensTarget)
{
    SlackTracker s;
    s.start(1, 0.10);
    s.update(0, 1.0e-3, 2.0e-3);   // 0.9 ms of debt
    double tpi_max = 1e-9;
    // Even running exactly at max-frequency speed is not enough to be
    // "within target" for the next epoch; the debt must be repaid
    // over time (the tracker still allows the fastest option when
    // nothing is feasible -- that choice is the policy's).
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.10, tpi_max, 1e-3));
}

TEST(Slack, PartialSlackInterpolates)
{
    SlackTracker s;
    s.start(1, 0.0);   // gamma 0 isolates the slack term
    s.update(0, 0.5e-3, 0.0);   // 0.5 ms banked
    double tpi_max = 1e-9;
    // epoch 1 ms, slack 0.5 ms: allowed stretch factor is
    // epoch / (epoch - slack) = 2.
    EXPECT_TRUE(s.feasible(0, tpi_max * 1.99, tpi_max, 1e-3));
    EXPECT_FALSE(s.feasible(0, tpi_max * 2.01, tpi_max, 1e-3));
}

TEST(Slack, PerCoreIndependence)
{
    SlackTracker s;
    s.start(2, 0.10);
    s.update(0, 1.0e-3, 2.0e-3);
    EXPECT_LT(s.slack(0), 0.0);
    EXPECT_DOUBLE_EQ(s.slack(1), 0.0);
}

TEST(Slack, ZeroGammaPermitsOnlyNominalSpeed)
{
    // gamma = 0 is the degenerate zero-slowdown bound: with no banked
    // slack, only tpi_f <= tpi_max is feasible — the policy may never
    // pick a point slower than nominal.
    SlackTracker s;
    s.start(1, 0.0);
    double tpi_max = 1e-9;
    EXPECT_TRUE(s.feasible(0, tpi_max, tpi_max, 1e-3));
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.000001, tpi_max, 1e-3));
    // Running exactly on target accumulates nothing.
    s.update(0, 1.0e-3, 1.0e-3);
    EXPECT_DOUBLE_EQ(s.slack(0), 0.0);
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.01, tpi_max, 1e-3));
}

TEST(Slack, SlackExactlyExhaustedAtEpochBoundary)
{
    // Bank slack exactly equal to the epoch length: budget
    // (epoch - slack) hits zero and the feasibility test must flip to
    // "anything goes" without dividing by zero or flipping sign.
    SlackTracker s;
    s.start(1, 0.0);
    const double epoch = 1e-3;
    s.update(0, epoch, 0.0);   // banked exactly one epoch of slack
    EXPECT_DOUBLE_EQ(s.slack(0), epoch);
    double tpi_max = 1e-9;
    EXPECT_TRUE(s.feasible(0, tpi_max * 1000.0, tpi_max, epoch));

    // One ulp less slack and a sufficiently slow point is rejected
    // again — the boundary is exact, not approximate.  The remaining
    // budget is a single ulp of the epoch (~2e-19 s), so "sufficiently
    // slow" means a stretch factor beyond epoch/ulp (~5e15).
    SlackTracker t;
    t.start(1, 0.0);
    double almost = std::nextafter(epoch, 0.0);
    t.update(0, almost, 0.0);
    EXPECT_TRUE(t.feasible(0, tpi_max * 1e13, tpi_max, epoch));
    EXPECT_FALSE(t.feasible(0, tpi_max * 1e17, tpi_max, epoch));

    // Spending the banked epoch drops the tracker back to zero: the
    // next epoch is bounded as if nothing had ever been saved.
    s.update(0, 0.0, epoch);
    EXPECT_DOUBLE_EQ(s.slack(0), 0.0);
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.01, tpi_max, epoch));
}

TEST(Slack, NegativeSlackRecovery)
{
    // A missed target must be repaid: after running 2x slower than
    // allowed, epochs at nominal speed accumulate gamma worth of
    // credit each until the debt clears and feasibility is restored.
    SlackTracker s;
    s.start(1, 0.10);
    const double epoch = 1e-3;
    double tpi_max = 1e-9;

    s.update(0, epoch, 2.0 * epoch);   // debt: 1.1 - 2.0 = -0.9 ms
    EXPECT_NEAR(s.slack(0), -0.9e-3, 1e-12);
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.10, tpi_max, epoch));

    int epochs_to_recover = 0;
    while (s.slack(0) < 0.0 && epochs_to_recover < 100) {
        // Run at nominal speed: banks gamma * epoch per epoch.
        s.update(0, epoch, epoch);
        ++epochs_to_recover;
    }
    // 0.9 ms debt at 0.1 ms credit per epoch: exactly 9 epochs.
    EXPECT_EQ(epochs_to_recover, 9);
    EXPECT_NEAR(s.slack(0), 0.0, 1e-12);
    // With the debt repaid, the gamma bound applies again.
    EXPECT_TRUE(s.feasible(0, tpi_max * 1.0999, tpi_max, epoch));
    EXPECT_FALSE(s.feasible(0, tpi_max * 1.2, tpi_max, epoch));
}

namespace
{

/** A one-epoch window: two working cores and one finished core. */
ProfileData
epochWindow()
{
    ProfileData p;
    p.windowLen = usToTick(250.0);
    p.freqDuring = 3;
    p.cores = {CoreSample{400'000, 2'000}, CoreSample{150'000, 4'500},
               CoreSample{0, 0}};
    p.mc.rbhc = 2'000;
    p.mc.cbmc = 4'000;
    p.mc.obmc = 500;
    p.mc.btc = 6'500;
    p.mc.bto = 1'300;
    p.mc.ctc = 6'500;
    p.mc.cto = 900.0;
    return p;
}

} // namespace

TEST(Slack, StartIsANoOpOnceStarted)
{
    SlackTracker s;
    EXPECT_EQ(s.size(), 0u);
    s.start(2, 0.10);
    s.update(1, 1.0e-3, 1.0e-3);
    s.start(4, 0.50);   // later decision points change nothing
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.gamma(), 0.10);
    EXPECT_NEAR(s.slack(1), 0.1e-3, 1e-15);
    EXPECT_DOUBLE_EQ(s.minSlack(), 0.0);
}

TEST(Slack, BankEpochChargesNominalCoreTime)
{
    // With the CPU at its nominal clock, banking charges each active
    // core its model time at nominal memory frequency, to the bit;
    // the finished core banks nothing.
    const ProfileData epoch = epochWindow();
    PolicyContext ctx;
    PerfModel model(ctx.cpuGHz);
    model.calibrate(epoch);
    const double actual = tickToSec(epoch.windowLen);

    SlackTracker banked;
    banked.start(3, 0.10);
    banked.bankEpoch(epoch, ctx.cpuGHz);
    SlackTracker by_hand;
    by_hand.start(3, 0.10);
    for (std::uint32_t c = 0; c < 2; ++c)
        by_hand.update(c, model.coreTime(c, nominalFreqIndex), actual);
    for (std::uint32_t c = 0; c < 3; ++c)
        EXPECT_EQ(banked.slack(c), by_hand.slack(c)) << "core " << c;
    EXPECT_EQ(banked.slack(2), 0.0);

    // A slower CPU clock shrinks the measured CPU share back to
    // nominal: the same epoch banks less work-equivalent time.
    SlackTracker slowed;
    slowed.start(3, 0.10);
    slowed.bankEpoch(epoch, ctx.cpuGHz, 0.5);
    for (std::uint32_t c = 0; c < 2; ++c)
        EXPECT_LT(slowed.slack(c), banked.slack(c)) << "core " << c;
}

TEST(Slack, TransferKeepsTheStartedFlag)
{
    SlackTracker s;
    s.start(2, 0.095);
    s.update(0, 2.0e-3, 1.0e-3);
    SectionWriter w;
    SectionIO out(w);
    s.transfer(out);

    SlackTracker back;
    SectionReader r("policy", w.data().data(), w.data().size());
    SectionIO in(r);
    back.transfer(in);
    r.finish();
    EXPECT_EQ(back.gamma(), 0.095);
    EXPECT_EQ(back.slack(0), s.slack(0));
    back.start(5, 0.2);   // restored as started: still a no-op
    EXPECT_EQ(back.size(), 2u);
}
