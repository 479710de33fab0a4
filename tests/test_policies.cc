/**
 * @file
 * Policy tests: factory, configuration side effects on the memory
 * controller, and MemScale frequency selection on crafted profiles.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/log.hh"
#include "memscale/policies/memscale_policy.hh"
#include "memscale/policies/policy.hh"
#include "memscale/policies/static_policy.hh"
#include "sim/event_queue.hh"

using namespace memscale;

namespace
{

ProfileData
profileWithAlpha(double alpha, double xi, std::uint32_t cores = 4)
{
    ProfileData p;
    p.windowLen = usToTick(100.0);
    p.freqDuring = nominalFreqIndex;
    std::uint64_t instr = 100'000;
    auto misses = static_cast<std::uint64_t>(alpha * instr);
    for (std::uint32_t c = 0; c < cores; ++c)
        p.cores.push_back(CoreSample{instr, misses});
    std::uint64_t total_misses = misses * cores;
    p.mc.cbmc = total_misses;
    p.mc.btc = total_misses ? total_misses : 1;
    p.mc.bto = static_cast<std::uint64_t>((xi - 1.0) * p.mc.btc);
    p.mc.ctc = p.mc.btc;
    p.mc.cto = (xi - 1.0) * static_cast<double>(p.mc.ctc);
    p.mc.reads = total_misses;
    p.mc.pocc = total_misses;
    p.mc.rankTime = p.windowLen * 16;
    p.mc.rankPreTime = p.windowLen * 16;
    return p;
}

PolicyContext
defaultContext()
{
    PolicyContext ctx;
    ctx.restWatts = 60.0;
    ctx.epochLen = msToTick(5.0);
    ctx.profileLen = usToTick(300.0);
    return ctx;
}

} // namespace

TEST(PolicyFactory, AllNamesConstruct)
{
    const std::set<std::string> fixed = {
        "baseline", "static", "fastpd", "slowpd", "srpd", "srslowpd",
        "deeppd", "ladder", "throttle", "decoupled"};
    const std::vector<std::string> all = allPolicyNames();
    EXPECT_EQ(all.size(), 18u);
    for (const std::string &name : all) {
        auto p = makePolicy(name);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), name);
        EXPECT_EQ(p->dynamic(), !fixed.count(name)) << name;
    }

    // policyNames() is the table minus exactly coscale and fastcap.
    std::vector<std::string> listed;
    for (const std::string &name : all) {
        if (name != "coscale" && name != "fastcap")
            listed.push_back(name);
    }
    EXPECT_EQ(listed.size(), all.size() - 2);
    EXPECT_EQ(policyNames(), listed);
}

TEST(PolicyFactory, UnknownNameListsTheTable)
{
    try {
        makePolicy("nope");
        FAIL() << "makePolicy accepted an unknown name";
    } catch (const FatalError &e) {
        // The refusal lists every accepted name.
        EXPECT_NE(e.message.find("unknown policy 'nope'"),
                  std::string::npos);
        EXPECT_NE(e.message.find(joined(allPolicyNames())),
                  std::string::npos)
            << e.message;
    }
}

TEST(PolicyConfigure, StaticSetsPaperFrequency)
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc(eq, cfg);
    makePolicy("static")->configure(mc, defaultContext());
    eq.runUntil();
    EXPECT_EQ(mc.busMHz(), 467u);
    EXPECT_EQ(mc.decoupledDeviceMHz(), 0u);
}

TEST(PolicyConfigure, StaticSetupPicksGridFrequency)
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc(eq, cfg);
    StaticPolicy p("static", {.busMHz = 333});
    p.configure(mc, defaultContext());
    eq.runUntil();
    EXPECT_EQ(p.name(), "static");
    EXPECT_EQ(mc.busMHz(), 333u);
}

TEST(PolicyConfigure, DecoupledSetsDeviceClock)
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc(eq, cfg);
    makePolicy("decoupled")->configure(mc, defaultContext());
    EXPECT_EQ(mc.busMHz(), 800u);
    EXPECT_EQ(mc.decoupledDeviceMHz(), 400u);
}

TEST(MemScaleSelect, ComputeBoundPicksLowestFrequency)
{
    MemScalePolicy p("memscale");
    PolicyContext ctx = defaultContext();
    // Near-zero miss rate: everything is feasible; lowest frequency
    // minimizes energy.
    ProfileData prof = profileWithAlpha(1e-5, 1.0);
    FreqIndex f = p.selectFrequency(prof, ctx, nominalFreqIndex);
    EXPECT_EQ(f, numFreqPoints - 1);
}

TEST(MemScaleSelect, MemoryBoundKeepsHighFrequency)
{
    MemScalePolicy p("memscale");
    PolicyContext ctx = defaultContext();
    // alpha 3% with heavy queueing: deep scaling infeasible within a
    // 10% CPI bound.
    ProfileData prof = profileWithAlpha(0.03, 2.0);
    FreqIndex f = p.selectFrequency(prof, ctx, nominalFreqIndex);
    EXPECT_LT(f, 4u);   // stays in the upper half of the grid
}

TEST(MemScaleSelect, BoundTightensSelection)
{
    PolicyContext loose = defaultContext();
    loose.gamma = 0.15;
    PolicyContext tight = defaultContext();
    tight.gamma = 0.01;
    ProfileData prof = profileWithAlpha(0.01, 1.3);
    MemScalePolicy p1("memscale"), p2("memscale");
    FreqIndex f_loose =
        p1.selectFrequency(prof, loose, nominalFreqIndex);
    FreqIndex f_tight =
        p2.selectFrequency(prof, tight, nominalFreqIndex);
    EXPECT_GE(f_loose, f_tight);   // looser bound -> slower allowed
}

TEST(MemScaleSelect, NegativeSlackForcesSpeedup)
{
    MemScalePolicy p("memscale");
    PolicyContext ctx = defaultContext();
    // Memory-heavy profile so frequency-induced slowdown is visible
    // to the model (slack only tracks modelled, i.e. memory-induced,
    // slowdown -- exactly as in the paper).
    ProfileData prof = profileWithAlpha(0.03, 2.0);
    FreqIndex first = p.selectFrequency(prof, ctx, nominalFreqIndex);
    EXPECT_GT(first, 0u);
    // Report an epoch executed at the lowest frequency whose measured
    // time exceeds the slack target: slack must go negative and the
    // next selection must not be slower than before.
    // Window sized so the measured time is memory-dominated (100k
    // instructions in 500 us -> 5 ns/instr against ~2.6 ns at max
    // frequency): >9.5% modelled slowdown, so slack goes negative.
    ProfileData epoch = prof;
    epoch.windowLen = usToTick(500.0);
    epoch.freqDuring = numFreqPoints - 1;
    p.endEpoch(epoch, ctx);
    for (std::uint32_t c = 0; c < epoch.cores.size(); ++c)
        EXPECT_LT(p.slack().slack(c), 0.0);
    FreqIndex second = p.selectFrequency(prof, ctx, first);
    EXPECT_LE(second, first);
}

TEST(MemScaleSelect, MemEnergyVariantScalesAtLeastAsDeep)
{
    MemScalePolicy mem_only("memscale-memenergy",
                            {.memoryEnergyOnly = true});
    MemScalePolicy full("memscale");
    PolicyContext ctx = defaultContext();
    ctx.restWatts = 200.0;   // make slowdown expensive system-wide
    ProfileData prof = profileWithAlpha(0.02, 1.5);
    FreqIndex f_mem =
        mem_only.selectFrequency(prof, ctx, nominalFreqIndex);
    FreqIndex f_full =
        full.selectFrequency(prof, ctx, nominalFreqIndex);
    EXPECT_GE(f_mem, f_full);
}

TEST(MemScaleSelect, InactiveCoresDoNotConstrain)
{
    MemScalePolicy p("memscale");
    PolicyContext ctx = defaultContext();
    ProfileData prof = profileWithAlpha(1e-5, 1.0, 2);
    prof.cores.push_back(CoreSample{0, 0});   // finished core
    FreqIndex f = p.selectFrequency(prof, ctx, nominalFreqIndex);
    EXPECT_EQ(f, numFreqPoints - 1);
}
