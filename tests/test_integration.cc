/**
 * @file
 * End-to-end integration tests over the experiment harness: baseline
 * calibration, policy behaviours (MemScale savings and bound
 * compliance, Fast-PD vs Slow-PD, Decoupled), determinism, and epoch
 * dynamics.  Budgets are kept small so the suite stays fast.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "memscale/policies/policy.hh"
#include "workload/mixes.hh"

using namespace memscale;

namespace
{

SystemConfig
smallConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 1'000'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    return cfg;
}

/**
 * A library policy behind a pass-through wrapper that keeps the
 * controller it configures, so a test can sample counters between
 * steps of a System.  Every decision is the wrapped policy's.
 */
class ProbePolicy : public Policy
{
  public:
    explicit ProbePolicy(const std::string &name)
        : inner_(makePolicy(name))
    {}

    MemoryController &mc() { return *mc_; }

    std::string name() const override { return inner_->name(); }

    void
    configure(MemoryController &mc, const PolicyContext &ctx) override
    {
        mc_ = &mc;
        inner_->configure(mc, ctx);
    }

    bool dynamic() const override { return inner_->dynamic(); }

    FreqIndex
    selectFrequency(const ProfileData &profile, const PolicyContext &ctx,
                    FreqIndex current) override
    {
        return inner_->selectFrequency(profile, ctx, current);
    }

    void
    endEpoch(const ProfileData &epoch, const PolicyContext &ctx) override
    {
        inner_->endEpoch(epoch, ctx);
    }

    double selectedCpuGHz() const override
    {
        return inner_->selectedCpuGHz();
    }

    PolicyDecision lastDecision() const override
    {
        return inner_->lastDecision();
    }

  private:
    std::unique_ptr<Policy> inner_;
    MemoryController *mc_ = nullptr;
};

} // namespace

TEST(Integration, BaselineCalibrationHitsMemoryFraction)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    EXPECT_GT(rest, 0.0);
    double frac = base.avgMemPower / base.avgSystemPower;
    EXPECT_NEAR(frac, cfg.memPowerFraction, 0.01);
    EXPECT_FALSE(base.hitTimeLimit);
    EXPECT_EQ(base.coreCpi.size(), 16u);
    for (double cpi : base.coreCpi)
        EXPECT_GT(cpi, 0.5);
}

TEST(Integration, MemScaleSavesEnergyWithinBound)
{
    SystemConfig cfg = smallConfig("MID1");
    ComparisonResult r = compare(cfg, "memscale");
    EXPECT_GT(r.memEnergySavings, 0.15);
    EXPECT_GT(r.sysEnergySavings, 0.0);
    EXPECT_LE(r.worstCpiIncrease, cfg.gamma + 0.02);
}

TEST(Integration, IlpWorkloadScalesToMinimumFrequency)
{
    SystemConfig cfg = smallConfig("ILP2");
    cfg.instrBudget = 2'000'000;
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    RunResult ms = runPolicy(cfg, "memscale", rest);
    ASSERT_FALSE(ms.timeline.empty());
    // After the first decision, ILP mixes sit at the lowest frequency.
    EXPECT_EQ(ms.timeline.back().busMHz, 200u);
    EXPECT_LT(ms.energy.memorySubsystem(),
              base.energy.memorySubsystem() * 0.5);
}

TEST(Integration, FastPdSavesSlowPdHurtsPerformance)
{
    SystemConfig cfg = smallConfig("MID2");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult fast = compareWithBase(cfg, base, rest, "fastpd");
    ComparisonResult slow = compareWithBase(cfg, base, rest, "slowpd");
    EXPECT_GT(fast.memEnergySavings, 0.0);
    EXPECT_LT(fast.worstCpiIncrease, 0.05);
    EXPECT_GT(slow.worstCpiIncrease, fast.worstCpiIncrease);
}

TEST(Integration, DecoupledCutsDramOnly)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult dec =
        compareWithBase(cfg, base, rest, "decoupled");
    // DRAM energy shrinks...
    EXPECT_LT(dec.policy.energy.dram(), base.energy.dram());
    // ...but PLL/reg and MC energy do not improve (runtime stretches).
    EXPECT_GE(dec.policy.energy.pllReg, base.energy.pllReg * 0.99);
    EXPECT_GE(dec.policy.energy.mc, base.energy.mc * 0.99);
}

TEST(Integration, StaticBeatsDecoupled)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult st = compareWithBase(cfg, base, rest, "static");
    ComparisonResult dec =
        compareWithBase(cfg, base, rest, "decoupled");
    EXPECT_GT(st.sysEnergySavings, dec.sysEnergySavings);
}

TEST(Integration, DeterministicAcrossRuns)
{
    SystemConfig cfg = smallConfig("MID3");
    ComparisonResult a = compare(cfg, "memscale");
    ComparisonResult b = compare(cfg, "memscale");
    EXPECT_EQ(a.policy.runtime, b.policy.runtime);
    EXPECT_EQ(a.base.runtime, b.base.runtime);
    EXPECT_DOUBLE_EQ(a.policy.energy.total(),
                     b.policy.energy.total());
}

TEST(Integration, SeedChangesRuntime)
{
    SystemConfig cfg = smallConfig("MID3");
    Watts rest = 0.0;
    RunResult a = runBaseline(cfg, rest);
    cfg.seed = 999;
    RunResult b = runBaseline(cfg, rest);
    EXPECT_NE(a.runtime, b.runtime);
}

TEST(Integration, EpochTimelineRecorded)
{
    SystemConfig cfg = smallConfig("MID1");
    cfg.instrBudget = 2'000'000;
    ComparisonResult r = compare(cfg, "memscale");
    ASSERT_GE(r.policy.timeline.size(), 2u);
    for (const EpochRecord &er : r.policy.timeline) {
        EXPECT_GT(er.busMHz, 0u);
        EXPECT_GE(er.channelUtil, 0.0);
        EXPECT_LE(er.channelUtil, 1.0);
        EXPECT_EQ(er.coreCpi.size(), 16u);
    }
}

/**
 * Fig. 7 at fig7_timeline_mid3's defaults (5M instructions, 0.25 ms
 * epochs, 25 us profiling: 10 epochs).  apsi's phase change shows as
 * its epoch CPI doubling; MemScale must then run the bus faster than
 * at any epoch before it (467 vs 333 MHz at seed 12345) and still keep
 * every core, apsi's included, within gamma (worst 9.7%).
 */
TEST(Integration, Fig7FrequencyRisesAfterApsiPhaseChange)
{
    SystemConfig cfg;
    cfg.mixName = "MID3";
    cfg.epochLen = msToTick(0.25);
    cfg.profileLen = usToTick(25.0);
    ComparisonResult r = compare(cfg, "memscale");

    std::vector<std::size_t> apsi;
    for (std::size_t c = 0; c < r.policy.coreApp.size(); ++c) {
        if (r.policy.coreApp[c] == "apsi")
            apsi.push_back(c);
    }
    ASSERT_FALSE(apsi.empty());
    auto apsiCpi = [&apsi](const EpochRecord &e) {
        double sum = 0.0;
        for (std::size_t c : apsi)
            sum += e.coreCpi[c];
        return sum / static_cast<double>(apsi.size());
    };

    const std::vector<EpochRecord> &tl = r.policy.timeline;
    ASSERT_GE(tl.size(), 3u);
    std::size_t change = 1;
    while (change < tl.size() &&
           apsiCpi(tl[change]) < 2.0 * apsiCpi(tl[0]))
        ++change;
    ASSERT_LT(change, tl.size()) << "apsi's CPI never doubled";

    std::uint32_t before = 0, after = 0;
    for (std::size_t i = 0; i < tl.size(); ++i) {
        std::uint32_t &peak = i < change ? before : after;
        peak = std::max(peak, tl[i].busMHz);
    }
    EXPECT_GT(after, before)
        << "phase change at epoch " << change << " of " << tl.size();

    for (std::size_t c : apsi)
        EXPECT_LE(r.cpiIncrease[c], cfg.gamma) << "apsi core " << c;
    EXPECT_LE(r.worstCpiIncrease, cfg.gamma);
}

TEST(Integration, TwoChannelConfigRuns)
{
    SystemConfig cfg = smallConfig("MID1");
    cfg.mem.numChannels = 2;
    ComparisonResult r = compare(cfg, "memscale");
    EXPECT_GT(r.memEnergySavings, 0.0);
    EXPECT_LE(r.worstCpiIncrease, cfg.gamma + 0.02);
}

TEST(Integration, EightCoreConfigRuns)
{
    SystemConfig cfg = smallConfig("MEM4");
    cfg.numCores = 8;
    ComparisonResult r = compare(cfg, "memscale");
    EXPECT_EQ(r.policy.coreCpi.size(), 8u);
    EXPECT_GT(r.memEnergySavings, 0.0);
}

TEST(Integration, MemScaleFastPdCombination)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult ms = compareWithBase(cfg, base, rest, "memscale");
    ComparisonResult combo =
        compareWithBase(cfg, base, rest, "memscale-fastpd");
    // The combination must not be materially worse than MemScale.
    EXPECT_GT(combo.memEnergySavings, ms.memEnergySavings - 0.05);
}

TEST(Integration, EnergyBreakdownConsistent)
{
    SystemConfig cfg = smallConfig("MID1");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    const EnergyBreakdown &e = base.energy;
    EXPECT_NEAR(e.total(),
                e.background + e.actPre + e.readWrite +
                    e.termination + e.refresh + e.pllReg + e.mc +
                    e.rest,
                e.total() * 1e-12);
    EXPECT_GT(e.background, 0.0);
    EXPECT_GT(e.actPre, 0.0);
    EXPECT_GT(e.readWrite, 0.0);
    EXPECT_GT(e.refresh, 0.0);
    EXPECT_GT(e.mc, 0.0);
}

TEST(Integration, RpkiMeasurementSane)
{
    SystemConfig cfg = smallConfig("MEM2");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    const MixSpec &mix = mixByName("MEM2");
    EXPECT_NEAR(base.measuredRpki, mix.paperRpki,
                mix.paperRpki * 0.25);
}

TEST(Integration, PoccMatchesActivatesPerChannel)
{
    // POCC is summed from the ranks' ACT/PRE counts, which count an
    // activate once its deferred open applies.  Mid-run it may trail
    // the row misses planned so far (their ACTs still lie ahead); once
    // the run ends every planned ACT has issued, so the two agree.
    SystemConfig cfg = smallConfig("MID3");
    cfg.restWatts = 150.0;
    for (const char *name : {"memscale", "fastpd"}) {
        ProbePolicy policy(name);
        System sys(cfg, policy);
        int epochs = 0;
        for (Tick t = cfg.epochLen; sys.now() < cfg.maxSimTime;
             t += cfg.epochLen, ++epochs) {
            const Tick before = sys.now();
            sys.advance(t);
            for (std::uint32_t ch = 0; ch < cfg.mem.numChannels; ++ch) {
                const McCounters c = policy.mc().sampleChannelCounters(ch);
                EXPECT_LE(c.pocc, c.obmc + c.cbmc)
                    << name << " chan " << ch << " at " << sys.now();
            }
            if (sys.now() == before)
                break;   // the workload finished
        }
        std::uint64_t activates = 0;
        for (std::uint32_t ch = 0; ch < cfg.mem.numChannels; ++ch) {
            const McCounters c = policy.mc().sampleChannelCounters(ch);
            EXPECT_EQ(c.pocc, c.obmc + c.cbmc) << name << " chan " << ch;
            activates += c.pocc;
        }
        EXPECT_GT(epochs, 3) << name;
        EXPECT_GT(activates, 0u) << name;
        const RunResult r = sys.finish();
        EXPECT_EQ(r.counters.pocc, activates) << name;
    }
}

TEST(System, AdvanceAndTimeLimitOutcomes)
{
    // advance() reports whether the run is still live.  A cut short of
    // maxSimTime keeps it live; running into maxSimTime ends it with
    // hitTimeLimit.  A cut past the workload's end ends it without,
    // and leaves the result bit-identical to an uninterrupted run.
    SystemConfig cfg = smallConfig("MID1");
    cfg.restWatts = 150.0;
    auto p = makePolicy("memscale");
    const RunResult full = System(cfg, *p).run();
    ASSERT_FALSE(full.hitTimeLimit);
    ASSERT_GT(full.runtime, 3 * cfg.epochLen);

    SystemConfig capped = cfg;
    capped.maxSimTime = full.runtime / 2;
    {
        auto q = makePolicy("memscale");
        System sys(capped, *q);
        EXPECT_TRUE(sys.advance(capped.maxSimTime / 2));
        EXPECT_EQ(sys.now(), capped.maxSimTime / 2);
        EXPECT_FALSE(sys.advance(capped.maxSimTime));
        EXPECT_FALSE(sys.advance(capped.maxSimTime + 1));
        const RunResult r = sys.finish();
        EXPECT_TRUE(r.hitTimeLimit);
        EXPECT_LE(r.runtime, capped.maxSimTime);
    }

    auto q = makePolicy("memscale");
    System sys(cfg, *q);
    EXPECT_TRUE(sys.advance(full.runtime / 3));
    EXPECT_FALSE(sys.advance(full.runtime * 2));
    EXPECT_EQ(sys.now(), full.runtime);
    EXPECT_FALSE(sys.advance(full.runtime * 3));
    const RunResult r = sys.finish();
    EXPECT_FALSE(r.hitTimeLimit);
    EXPECT_EQ(hashRunResult(r), hashRunResult(full));
}
