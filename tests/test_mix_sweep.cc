/**
 * @file
 * Full-matrix property sweep: MemScale against every Table 1 mix.
 * These are the headline guarantees of the paper, asserted per mix:
 * the performance bound holds, energy is saved (never lost), runtime
 * only stretches within the bound, and energy accounting is
 * internally consistent.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "workload/mixes.hh"

using namespace memscale;

namespace
{

/** One comparison per mix, cached across the suite's assertions. */
const ComparisonResult &
resultFor(std::size_t mix_idx)
{
    static std::map<std::size_t, ComparisonResult> cache;
    auto it = cache.find(mix_idx);
    if (it == cache.end()) {
        SystemConfig cfg;
        cfg.mixName = allMixes()[mix_idx].name;
        cfg.instrBudget = 600'000;
        cfg.epochLen = msToTick(0.1);
        cfg.profileLen = usToTick(10.0);
        it = cache.emplace(mix_idx, compare(cfg, "memscale")).first;
    }
    return it->second;
}

} // namespace

class MixSweep : public ::testing::TestWithParam<std::size_t>
{
  protected:
    const ComparisonResult &r() const { return resultFor(GetParam()); }
    const MixSpec &mix() const { return allMixes()[GetParam()]; }
};

TEST_P(MixSweep, BoundHolds)
{
    EXPECT_LE(r().worstCpiIncrease, 0.10 + 0.02) << mix().name;
}

TEST_P(MixSweep, SavesMemoryEnergy)
{
    EXPECT_GT(r().memEnergySavings, 0.05) << mix().name;
}

TEST_P(MixSweep, NeverLosesSystemEnergy)
{
    EXPECT_GT(r().sysEnergySavings, -0.01) << mix().name;
}

TEST_P(MixSweep, RuntimeStretchWithinBound)
{
    double stretch = static_cast<double>(r().policy.runtime) /
                     static_cast<double>(r().base.runtime);
    EXPECT_LE(stretch, 1.0 + 0.10 + 0.03) << mix().name;
    EXPECT_GE(stretch, 0.999) << mix().name;
}

TEST_P(MixSweep, AllCoresFinished)
{
    EXPECT_FALSE(r().base.hitTimeLimit);
    EXPECT_FALSE(r().policy.hitTimeLimit);
    for (double cpi : r().policy.coreCpi)
        EXPECT_GT(cpi, 0.0);
}

TEST_P(MixSweep, EnergyAccountingConsistent)
{
    for (const RunResult *run : {&r().base, &r().policy}) {
        const EnergyBreakdown &e = run->energy;
        EXPECT_NEAR(e.total(),
                    e.background + e.actPre + e.readWrite +
                        e.termination + e.refresh + e.pllReg + e.mc +
                        e.cpu + e.rest,
                    e.total() * 1e-9);
        EXPECT_GT(e.memorySubsystem(), 0.0);
    }
}

TEST_P(MixSweep, ClassOrderingOnSavings)
{
    // Class-level expectation from Fig. 5: ILP mixes save more system
    // energy than MEM mixes.
    if (mix().klass == "ILP") {
        EXPECT_GT(r().sysEnergySavings, 0.10) << mix().name;
    }
    if (mix().klass == "MEM") {
        EXPECT_LT(r().sysEnergySavings, 0.15) << mix().name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllMixes, MixSweep,
                         ::testing::Range(std::size_t(0),
                                          std::size_t(12)),
                         [](const auto &info) {
                             return allMixes()[info.param].name;
                         });
