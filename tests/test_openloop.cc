/**
 * @file
 * Arrival-generator tests: empirical rates against the configured λ,
 * byte-identical seed determinism, over-dispersion/shape invariants
 * for the bursty and diurnal processes, checkpoint round-trips
 * mid-stream, and jobs=1-vs-N hash identity for serving sweeps.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/log.hh"
#include "harness/differential.hh"
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
    double got = empiricalRate(cfg, 5 * diurnalDay);
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
    const Tick T = diurnalDay;
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
    const ArrivalConfig cfg = arrivalConfig(ArrivalKind::Poisson, 0.0);
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
