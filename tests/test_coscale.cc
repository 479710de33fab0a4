/**
 * @file
 * Coordinated CPU+memory DVFS tests: core re-clocking mechanics, the
 * CPU power model, CPU energy integration, and end-to-end CoScale
 * behaviour.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/core.hh"
#include "harness/experiment.hh"
#include "memscale/energy_model.hh"
#include "memscale/policies/coscale_policy.hh"
#include "memscale/slack.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

class ScriptedSource : public TraceSource
{
  public:
    std::deque<TraceChunk> chunks;

    bool
    next(TraceChunk &chunk) override
    {
        if (chunks.empty())
            return false;
        chunk = chunks.front();
        chunks.pop_front();
        return true;
    }
};

SystemConfig
smallConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 1'000'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.modelCpuPower = true;
    return cfg;
}

} // namespace

TEST(CpuPowerModel, VsquaredFScaling)
{
    PowerParams pp;
    // Busy at nominal: full peak.
    EXPECT_NEAR(pp.cpuCorePower(4.0, 1.0), pp.cpuCorePeakW, 1e-9);
    // Idle at nominal: static share only.
    EXPECT_NEAR(pp.cpuCorePower(4.0, 0.0),
                pp.cpuStaticFrac * pp.cpuCorePeakW, 1e-9);
    // Scaling down wins superlinearly on the dynamic share.
    double lo = pp.cpuCorePower(2.0, 1.0);
    double linear = pp.cpuCorePeakW * (1.0 - pp.cpuStaticFrac) * 0.5 +
                    pp.cpuStaticFrac * pp.cpuCorePeakW;
    EXPECT_LT(lo, linear);
    EXPECT_GT(lo, 0.0);
}

TEST(CoreDvfs, ReclockingStretchesCompute)
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc(eq, cfg);
    ScriptedSource src;
    TraceChunk c;
    c.instructions = 1000;
    c.cpi = 1.0;
    c.missAddr = 0;
    src.chunks.push_back(c);
    CoreParams cp;
    cp.instrBudget = 1001;
    cp.runPastBudget = false;
    Core core(eq, 0, src, mc, cp);
    core.setFrequencyGHz(2.0);   // half speed: 1000 instr in 500 ns
    core.start();
    eq.runUntil();
    EXPECT_TRUE(core.done());
    EXPECT_EQ(core.doneAt(), nsToTick(500.0 + 38.125));
    // Reported CPI stays normalized to the nominal 4 GHz clock.
    EXPECT_NEAR(core.budgetCpi(),
                tickToSec(core.doneAt()) * 4e9 / 1001.0, 1e-9);
}

TEST(CoreDvfs, BadFrequencyPanics)
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc(eq, cfg);
    ScriptedSource src;
    CoreParams cp;
    Core core(eq, 0, src, mc, cp);
    EXPECT_DEATH(core.setFrequencyGHz(0.0), "non-positive");
}

TEST(CpuMemGrid, WalksEveryPairInOrderAndCutsOnSlack)
{
    ProfileData prof;
    prof.windowLen = usToTick(25.0);
    prof.freqDuring = nominalFreqIndex;
    prof.cores = {CoreSample{40'000, 600}, CoreSample{25'000, 900},
                  CoreSample{0, 0}};
    prof.mc.cbmc = 1'500;
    prof.mc.btc = 1'500;
    prof.mc.ctc = 1'500;
    PolicyContext ctx;
    ctx.restWatts = 20.0;
    PerfModel perf(ctx.cpuGHz);
    perf.calibrate(prof);

    // Memory frequency outer, CPU clock inner, fastest first.
    const auto all = walkCpuMemGrid(perf, prof, ctx, nominalFreqIndex,
                                    ctx.cpuGHz);
    ASSERT_EQ(all.size(), numFreqPoints * cpuGridGHz.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].f, i / cpuGridGHz.size());
        EXPECT_EQ(all[i].g, cpuGridGHz[i % cpuGridGHz.size()]);
        EXPECT_GT(all[i].tMean, 0.0);
        EXPECT_GT(all[i].totalJ, all[i].memJ);
    }

    // With gamma 0 and no banked slack only the nominal pair keeps
    // every core on target, and the cut leaves its numbers alone.
    SlackTracker slack;
    slack.start(prof.cores.size(), 0.0);
    const auto cut = walkCpuMemGrid(perf, prof, ctx, nominalFreqIndex,
                                    ctx.cpuGHz, &slack);
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_EQ(cut[0].f, nominalFreqIndex);
    EXPECT_EQ(cut[0].g, ctx.cpuGHz);
    EXPECT_EQ(cut[0].tMean, all[0].tMean);
    EXPECT_EQ(cut[0].totalJ, all[0].totalJ);

    // No active core, no points.
    ProfileData idle = prof;
    for (CoreSample &c : idle.cores)
        c = CoreSample{};
    perf.calibrate(idle);
    EXPECT_TRUE(walkCpuMemGrid(perf, idle, ctx, nominalFreqIndex,
                               ctx.cpuGHz).empty());
}

TEST(CoScale, PolicyRegistered)
{
    auto p = makePolicy("coscale");
    EXPECT_TRUE(p->dynamic());
    EXPECT_EQ(p->name(), "coscale");
    EXPECT_DOUBLE_EQ(p->selectedCpuGHz(), 0.0);
}

TEST(CoScale, CpuEnergyTracked)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    EXPECT_GT(base.energy.cpu, 0.0);
    // 16 cores at <= 3 W: a plausible average power band.
    double cpu_w = base.energy.cpu / tickToSec(base.runtime);
    EXPECT_GT(cpu_w, 5.0);
    EXPECT_LT(cpu_w, 48.0);
    // Calibration keeps the memory fraction on target.
    EXPECT_NEAR(base.avgMemPower / base.avgSystemPower,
                cfg.memPowerFraction, 0.01);
}

TEST(CoScale, SavesAtLeastAsMuchAsMemScale)
{
    SystemConfig cfg = smallConfig("MID2");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult ms = compareWithBase(cfg, base, rest, "memscale");
    ComparisonResult co = compareWithBase(cfg, base, rest, "coscale");
    EXPECT_GT(co.sysEnergySavings, ms.sysEnergySavings - 0.02);
    EXPECT_LE(co.worstCpiIncrease, cfg.gamma + 0.02);
}

TEST(CoScale, CpuEnergyNeverWorseThanMemScale)
{
    // Adding the CPU dimension can only help the CPU-energy term:
    // wherever memscale leaves the cores at nominal, coscale may
    // scale them within the same slack.
    for (const char *mix : {"MID1", "MEM2"}) {
        SystemConfig cfg = smallConfig(mix);
        cfg.instrBudget = 2'000'000;
        Watts rest = 0.0;
        RunResult base = runBaseline(cfg, rest);
        ComparisonResult ms =
            compareWithBase(cfg, base, rest, "memscale");
        ComparisonResult co =
            compareWithBase(cfg, base, rest, "coscale");
        EXPECT_LE(co.policy.energy.cpu,
                  ms.policy.energy.cpu * 1.001)
            << mix;
        EXPECT_LE(co.worstCpiIncrease, cfg.gamma + 0.02) << mix;
    }
}

TEST(CoScale, SpendsSlackOnCpuWhenMemoryIsCheap)
{
    // ILP work leaves the memory at the floor with slack to spare;
    // the coordinated policy converts it into CPU scaling.
    SystemConfig cfg = smallConfig("ILP2");
    cfg.instrBudget = 2'000'000;
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult co = compareWithBase(cfg, base, rest, "coscale");
    ASSERT_FALSE(co.policy.timeline.empty());
    double min_ghz = 10.0;
    for (const EpochRecord &er : co.policy.timeline)
        min_ghz = std::min(min_ghz, er.cpuGHz);
    EXPECT_LT(min_ghz, 4.0);
    EXPECT_LT(co.policy.energy.cpu, base.energy.cpu);
    EXPECT_LE(co.worstCpiIncrease, cfg.gamma + 0.02);
}

TEST(CoScale, CpuZeroWhenNotModelled)
{
    SystemConfig cfg = smallConfig("MID1");
    cfg.modelCpuPower = false;
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    EXPECT_DOUBLE_EQ(base.energy.cpu, 0.0);
}
