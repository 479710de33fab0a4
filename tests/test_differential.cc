/**
 * @file
 * Differential-harness tests: sweeps must agree bit-for-bit across
 * worker counts, and the diff machinery itself must detect injected
 * divergence (a differ that can't fail proves nothing).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/differential.hh"
#include "harness/experiment.hh"

using namespace memscale;

namespace
{

SystemConfig
smallConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 500'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    return cfg;
}

} // namespace

TEST(Differential, SweepAgreesAcrossWorkerCounts)
{
    std::vector<SweepCase> cases;
    for (const char *mix : {"ILP1", "MID1", "MEM1"}) {
        SweepCase c;
        c.cfg = smallConfig(mix);
        c.policy = "memscale";
        cases.push_back(std::move(c));
    }
    for (const DiffReport &rep : sweepDiff(cases, 4))
        EXPECT_TRUE(rep.identical()) << rep.str();
}

TEST(Differential, DifferDetectsInjectedCounterDrift)
{
    SystemConfig cfg = smallConfig("MID1");
    RunResult a = runPolicy(cfg, "memscale", 150.0);
    RunResult b = a;
    b.counters.reads += 1;
    DiffReport rep = diffRunResults("inject", a, b);
    ASSERT_FALSE(rep.identical());
    ASSERT_EQ(rep.diffs.size(), 1u);
    EXPECT_EQ(rep.diffs.front().field, "counters.reads");
    EXPECT_NE(rep.hashA, rep.hashB);
}

TEST(Differential, DifferDetectsInjectedEnergyDrift)
{
    SystemConfig cfg = smallConfig("MID1");
    RunResult a = runPolicy(cfg, "memscale", 150.0);
    RunResult b = a;
    // One ulp of drift in one energy category must not slip through.
    b.energy.background =
        std::nextafter(b.energy.background, 1e30);
    DiffReport rep = diffRunResults("inject", a, b);
    ASSERT_FALSE(rep.identical());
    EXPECT_EQ(rep.diffs.front().field, "energy.background");
}

TEST(Differential, DifferDetectsTimelineDivergence)
{
    SystemConfig cfg = smallConfig("MID1");
    RunResult a = runPolicy(cfg, "memscale", 150.0);
    ASSERT_FALSE(a.timeline.empty());
    RunResult b = a;
    b.timeline.back().busMHz = 12345;
    DiffReport rep = diffRunResults("inject", a, b);
    ASSERT_FALSE(rep.identical());
    EXPECT_NE(rep.diffs.front().field.find("busMHz"),
              std::string::npos);
}

TEST(Differential, ReportStringsAreReadable)
{
    SystemConfig cfg = smallConfig("ILP1");
    RunResult a = runPolicy(cfg, "fastpd", 150.0);
    DiffReport same = diffRunResults("same", a, a);
    EXPECT_TRUE(same.identical());
    EXPECT_NE(same.str().find("identical"), std::string::npos);

    RunResult b = a;
    b.runtime += 1;
    DiffReport rep = diffRunResults("drift", a, b);
    std::string s = rep.str();
    EXPECT_NE(s.find("runtime"), std::string::npos);
    EXPECT_NE(s.find("vs"), std::string::npos);
}

TEST(Differential, RunAllSelfCheckPasses)
{
    // What the bench drivers execute under --check, scaled down.
    EXPECT_EQ(runSelfCheck(smallConfig("MID1"), 2), 0u);
}
