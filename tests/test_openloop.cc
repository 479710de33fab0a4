/**
 * @file
 * Arrival-generator tests: empirical rates against the configured λ,
 * byte-identical seed determinism, over-dispersion/shape invariants
 * for the bursty and diurnal processes, checkpoint round-trips
 * mid-stream, and jobs=1-vs-N hash identity for serving sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "harness/differential.hh"
#include "harness/serving.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "snapshot/serializer.hh"
#include "workload/openloop.hh"

using namespace memscale;

namespace
{

ArrivalConfig
arrivalConfig(ArrivalKind kind, double rate = 2.0e6,
              std::uint64_t seed = 12345)
{
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.ratePerSec = rate;
    cfg.seed = seed;
    return cfg;
}

/** Arrival ticks until `horizon`, capped (shape tests only). */
std::vector<Tick>
drawUntil(ArrivalGenerator &gen, Tick horizon,
          std::size_t cap = 2'000'000)
{
    std::vector<Tick> out;
    while (out.size() < cap) {
        Tick t = gen.next();
        if (t > horizon)
            break;
        out.push_back(t);
    }
    return out;
}

/** Empirical rate over a horizon, requests per second. */
double
empiricalRate(const ArrivalConfig &cfg, Tick horizon)
{
    ArrivalGenerator gen(cfg);
    return static_cast<double>(drawUntil(gen, horizon).size()) /
           tickToSec(horizon);
}

} // namespace

// ---------------------------------------------------------------------
// Long-run rate: every process must realize the configured λ.
// ---------------------------------------------------------------------

TEST(ArrivalRate, PoissonMatchesLambda)
{
    const double rate = 2.0e6;
    // ~20k arrivals: relative sd of the count is 1/sqrt(n) ~ 0.7%,
    // so a 5% tolerance is ~7 sigma and effectively deterministic.
    double got =
        empiricalRate(arrivalConfig(ArrivalKind::Poisson, rate),
                      msToTick(10.0));
    EXPECT_NEAR(got, rate, 0.05 * rate);
}

TEST(ArrivalRate, BurstyMatchesLambdaLongRun)
{
    // The MMPP state rates are solved so the long-run mean is λ, but
    // count variance is dominated by the dwell process (one burst/calm
    // cycle is ~0.5 ms here), so "long run" means many hundreds of
    // cycles, not many arrivals.
    const double rate = 2.0e6;
    double got = empiricalRate(
        arrivalConfig(ArrivalKind::Bursty, rate), msToTick(500.0));
    EXPECT_NEAR(got, rate, 0.05 * rate);
}

TEST(ArrivalRate, DiurnalMatchesLambdaOverWholePeriods)
{
    // Over an integer number of periods the sinusoid integrates out.
    const double rate = 2.0e6;
    ArrivalConfig cfg = arrivalConfig(ArrivalKind::Diurnal, rate);
    double got = empiricalRate(cfg, 5 * cfg.diurnalPeriod);
    EXPECT_NEAR(got, rate, 0.05 * rate);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(ArrivalDeterminism, SameSeedIdenticalStream)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        ArrivalGenerator a(arrivalConfig(kind));
        ArrivalGenerator b(arrivalConfig(kind));
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.next(), b.next())
                << arrivalKindName(kind) << " diverged at " << i;
    }
}

TEST(ArrivalDeterminism, DifferentSeedDifferentStream)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        ArrivalGenerator a(arrivalConfig(kind, 2.0e6, 1));
        ArrivalGenerator b(arrivalConfig(kind, 2.0e6, 2));
        bool diverged = false;
        for (int i = 0; i < 100 && !diverged; ++i)
            diverged = a.next() != b.next();
        EXPECT_TRUE(diverged) << arrivalKindName(kind);
    }
}

TEST(ArrivalDeterminism, TicksNondecreasing)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        ArrivalGenerator gen(arrivalConfig(kind, 5.0e7));
        Tick prev = 0;
        for (int i = 0; i < 50000; ++i) {
            Tick t = gen.next();
            ASSERT_GE(t, prev) << arrivalKindName(kind);
            prev = t;
        }
        EXPECT_EQ(gen.generated(), 50000u);
    }
}

// ---------------------------------------------------------------------
// Shape invariants
// ---------------------------------------------------------------------

namespace
{

/** Index of dispersion (var/mean) of counts in fixed windows. */
double
dispersionIndex(const std::vector<Tick> &arrivals, Tick window,
                Tick horizon)
{
    std::vector<double> counts(horizon / window, 0.0);
    for (Tick t : arrivals) {
        std::size_t w = t / window;
        if (w < counts.size())
            counts[w] += 1.0;
    }
    double mean = 0.0;
    for (double c : counts)
        mean += c;
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (double c : counts)
        var += (c - mean) * (c - mean);
    var /= static_cast<double>(counts.size());
    return var / mean;
}

} // namespace

TEST(ArrivalShape, BurstyOverdispersedVsPoisson)
{
    // Counts in windows comparable to the dwell time: Poisson has
    // var/mean ~ 1; the MMPP mixes two rates, so var/mean >> 1.
    const Tick horizon = msToTick(20.0);
    const Tick window = usToTick(50.0);

    ArrivalGenerator pg(arrivalConfig(ArrivalKind::Poisson));
    double poisson =
        dispersionIndex(drawUntil(pg, horizon), window, horizon);
    ArrivalGenerator bg(arrivalConfig(ArrivalKind::Bursty));
    double bursty =
        dispersionIndex(drawUntil(bg, horizon), window, horizon);

    EXPECT_LT(poisson, 2.0);
    EXPECT_GT(bursty, 3.0 * poisson);
}

TEST(ArrivalShape, DiurnalPeakOverTrough)
{
    // λ(t) = λ(1 + d sin(2πt/T)): with d = 0.75 the peak quarter of
    // the period (centred on T/4) averages ~1.68λ and the trough
    // quarter ~0.33λ — a ratio of ~5, far outside Poisson noise.
    ArrivalConfig cfg = arrivalConfig(ArrivalKind::Diurnal);
    ArrivalGenerator gen(cfg);
    const Tick T = cfg.diurnalPeriod;
    const int periods = 8;
    std::uint64_t peak = 0, trough = 0;
    for (Tick t : drawUntil(gen, periods * T)) {
        Tick phase = t % T;
        if (phase >= T / 8 && phase < 3 * T / 8)
            ++peak;
        else if (phase >= 5 * T / 8 && phase < 7 * T / 8)
            ++trough;
    }
    ASSERT_GT(trough, 0u);
    double ratio =
        static_cast<double>(peak) / static_cast<double>(trough);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 8.0);
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

TEST(ArrivalValidation, BadConfigsAreFatal)
{
    ArrivalConfig cfg = arrivalConfig(ArrivalKind::Poisson, 0.0);
    EXPECT_THROW(ArrivalGenerator{cfg}, FatalError);

    cfg = arrivalConfig(ArrivalKind::Bursty);
    cfg.burstFraction = 1.5;
    EXPECT_THROW(ArrivalGenerator{cfg}, FatalError);

    cfg = arrivalConfig(ArrivalKind::Bursty);
    cfg.burstFactor = 0.5;
    EXPECT_THROW(ArrivalGenerator{cfg}, FatalError);

    cfg = arrivalConfig(ArrivalKind::Diurnal);
    cfg.diurnalDepth = 1.0;   // rate would touch zero
    EXPECT_THROW(ArrivalGenerator{cfg}, FatalError);

    EXPECT_THROW(parseArrivalKind("weekly"), FatalError);
}

// ---------------------------------------------------------------------
// Checkpoint round-trip mid-stream
// ---------------------------------------------------------------------

TEST(ArrivalSnapshot, ResumeContinuesStreamExactly)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        ArrivalConfig cfg = arrivalConfig(kind);
        ArrivalGenerator ref(cfg);
        ArrivalGenerator cut(cfg);
        // Advance both to mid-stream (inside dwells/periods), then
        // round-trip one through the serializer.
        for (int i = 0; i < 7777; ++i) {
            ref.next();
            cut.next();
        }
        SnapshotWriter w;
        SectionIO out(w.section("gen"));
        cut.transfer(out);
        SnapshotReader r(w.serialize());
        ArrivalGenerator resumed(cfg);
        SectionReader s = r.section("gen");
        SectionIO in(s);
        resumed.transfer(in);
        EXPECT_EQ(resumed.generated(), cut.generated());
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(resumed.next(), ref.next())
                << arrivalKindName(kind) << " diverged at " << i;
    }
}

// ---------------------------------------------------------------------
// Serving sweeps: jobs=1 vs jobs=N produce identical result hashes.
// ---------------------------------------------------------------------

TEST(ServingSweep, JobsOneVsManyHashIdentical)
{
    std::vector<SystemConfig> cfgs;
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        SystemConfig cfg;
        cfg.mixName = "OPENLOOP";
        cfg.numCores = 4;
        cfg.epochLen = msToTick(0.1);
        cfg.profileLen = usToTick(10.0);
        cfg.seed = 12345;
        cfg.serving.enabled = true;
        cfg.serving.arrival = arrivalConfig(kind, 1.0e6);
        cfg.serving.horizon = msToTick(0.5);
        cfgs.push_back(cfg);
    }
    auto runAll = [&](unsigned jobs) {
        SweepEngine eng(jobs);
        return eng.map<std::uint64_t>(cfgs.size(), [&](std::size_t i) {
            return hashRunResult(
                runPolicy(cfgs[i], "memscale", 150.0));
        });
    };
    std::vector<std::uint64_t> serial = runAll(1);
    std::vector<std::uint64_t> fanned = runAll(4);
    ASSERT_EQ(serial.size(), fanned.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], fanned[i]) << "config " << i;
}

// ---------------------------------------------------------------------
// Service-demand mixes: every distribution must keep the configured
// mean (so the offered *work* is shape-independent), differ only in
// spread, and stay deterministic per seed.
// ---------------------------------------------------------------------

namespace
{

struct DemandSample
{
    double mean = 0.0;
    double variance = 0.0;
    std::uint64_t min = ~0ull;
    std::uint64_t max = 0;
};

DemandSample
sampleDemand(const ServingOptions &opts, std::size_t n = 200'000,
             std::uint64_t seed = 777)
{
    Rng rng(seed);
    DemandSample s;
    double sum = 0.0;
    double sumsq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t d = drawServingDemand(opts, rng);
        sum += static_cast<double>(d);
        sumsq += static_cast<double>(d) * static_cast<double>(d);
        s.min = std::min(s.min, d);
        s.max = std::max(s.max, d);
    }
    s.mean = sum / static_cast<double>(n);
    s.variance = sumsq / static_cast<double>(n) - s.mean * s.mean;
    return s;
}

ServingOptions
demandOpts(DemandMix mix)
{
    ServingOptions o;
    o.missesPerRequest = 8.0;
    o.demandMix = mix;
    return o;
}

} // namespace

TEST(DemandMix, EveryMixPreservesTheMean)
{
    for (DemandMix mix :
         {DemandMix::Geometric, DemandMix::Fixed, DemandMix::LogNormal,
          DemandMix::TwoClass}) {
        DemandSample s = sampleDemand(demandOpts(mix));
        // 200k draws: even the heavy-tailed shapes estimate the mean
        // to well under 5%.
        EXPECT_NEAR(s.mean, 8.0, 0.4) << demandMixName(mix);
        EXPECT_GE(s.min, 1u) << demandMixName(mix);
    }
}

TEST(DemandMix, ShapesOrderBySpread)
{
    DemandSample fixed = sampleDemand(demandOpts(DemandMix::Fixed));
    DemandSample geo = sampleDemand(demandOpts(DemandMix::Geometric));
    ServingOptions two = demandOpts(DemandMix::TwoClass);
    DemandSample twoc = sampleDemand(two);

    EXPECT_DOUBLE_EQ(fixed.variance, 0.0);
    EXPECT_EQ(fixed.min, fixed.max);
    // Two-class piles mass at ~6 and ~47 misses, so it is strictly
    // more dispersed than the memoryless mix at the same mean.
    EXPECT_GT(geo.variance, 0.0);
    EXPECT_GT(twoc.variance, 2.0 * geo.variance);
}

TEST(DemandMix, LogNormalSpreadGrowsWithSigma)
{
    ServingOptions narrow = demandOpts(DemandMix::LogNormal);
    narrow.demandSigma = 0.4;
    ServingOptions wide = demandOpts(DemandMix::LogNormal);
    wide.demandSigma = 1.2;

    DemandSample n = sampleDemand(narrow);
    DemandSample w = sampleDemand(wide);
    // Same mean by construction (mu = ln(mean) - sigma^2/2) ...
    EXPECT_NEAR(n.mean, 8.0, 0.4);
    EXPECT_NEAR(w.mean, 8.0, 0.8);
    // ... but the multiplicative spread is sigma's knob alone.
    EXPECT_GT(w.variance, 3.0 * n.variance);
    EXPECT_GT(w.max, n.max);
}

TEST(DemandMix, TwoClassHeavyFractionRealized)
{
    ServingOptions o = demandOpts(DemandMix::TwoClass);
    o.heavyFraction = 0.05;
    o.heavyMultiplier = 8.0;
    // light mean = 8/1.35 ~ 5.9, heavy mean ~ 47.4: a threshold at
    // 4x the light mean cleanly separates the classes.
    Rng rng(31337);
    const std::size_t n = 200'000;
    std::size_t heavy = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (drawServingDemand(o, rng) > 24)
            ++heavy;
    const double frac = static_cast<double>(heavy) /
                        static_cast<double>(n);
    // The heavy class lands above the threshold with prob ~0.6 and
    // the light class below with prob ~0.98; the observed fraction
    // sits near p * P(heavy above) ~ 0.03.
    EXPECT_GT(frac, 0.015);
    EXPECT_LT(frac, 0.05);
}

TEST(DemandMix, DeterministicPerSeedAndNamedRoundTrip)
{
    for (DemandMix mix :
         {DemandMix::Geometric, DemandMix::Fixed, DemandMix::LogNormal,
          DemandMix::TwoClass}) {
        ServingOptions o = demandOpts(mix);
        Rng a(9), b(9);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(drawServingDemand(o, a), drawServingDemand(o, b))
                << demandMixName(mix) << " diverged at " << i;
        EXPECT_EQ(parseDemandMix(demandMixName(mix)), mix);
    }
    // Fixed ignores the other shapes' knobs.
    ServingOptions fixed = demandOpts(DemandMix::LogNormal);
    fixed.demandMix = DemandMix::Fixed;
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(drawServingDemand(fixed, rng), 8u);
}
