/**
 * @file
 * End-to-end tests of the open-loop serving path: sane request
 * accounting under Poisson load, the SLO policy meeting a p99 target
 * the CPI-bound policy misses at lower-than-baseline energy, graceful
 * degradation to the nominal frequency under overload, bounded-queue
 * drop accounting, observability integration, and a 150 ms run under
 * the idle ladder with migration that resumes bit-identically.
 *
 * All runs are deterministic (fixed seeds, bit-reproducible kernel),
 * so the latency assertions are exact, not statistical.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "memscale/policies/policy.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

/** The calibrated operating point shared by the tests below. */
SystemConfig
serveConfig(double rate_per_sec = 0.5e6)
{
    SystemConfig cfg;
    cfg.mixName = "OPENLOOP";
    cfg.numCores = 8;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.seed = 12345;
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind = ArrivalKind::Poisson;
    cfg.serving.arrival.ratePerSec = rate_per_sec;
    cfg.serving.horizon = msToTick(1.0);
    cfg.serving.sloP99Us = 3.0;
    return cfg;
}

/** arrived = completed + dropped + queued + in service. */
void
expectConservation(const ServingStats &s)
{
    EXPECT_TRUE(s.valid);
    EXPECT_EQ(s.arrived, s.completed + s.dropped + s.queuedAtEnd +
                             s.inServiceAtEnd);
}

} // namespace

TEST(Serving, BaselineRunAccounting)
{
    SystemConfig cfg = serveConfig();
    Watts rest = 0.0;
    RunResult r = runBaseline(cfg, rest);

    const ServingStats &s = r.serving;
    expectConservation(s);
    EXPECT_GT(rest, 0.0);
    // ~500 arrivals expected at 0.5M/s over 1 ms; Poisson noise on a
    // fixed seed is frozen, so a generous band documents intent.
    EXPECT_GT(s.arrived, 400u);
    EXPECT_LT(s.arrived, 650u);
    EXPECT_GT(s.completed, 0u);
    EXPECT_NEAR(s.offeredQps, 0.5e6, 0.1e6);
    EXPECT_EQ(s.dropped, 0u);
    // Percentiles are nondecreasing and the tail fits the histogram.
    EXPECT_LE(s.p50Us, s.p95Us);
    EXPECT_LE(s.p95Us, s.p99Us);
    EXPECT_LE(s.p99Us, s.p999Us);
    EXPECT_LE(s.p999Us, s.maxUs + 1.0);
    EXPECT_EQ(s.histOverflow, 0u);
    EXPECT_GT(s.meanUs, 0.0);
    // Per-core rows come from the workers.
    ASSERT_EQ(r.coreCpi.size(), cfg.numCores);
    ASSERT_EQ(r.coreApp.size(), cfg.numCores);
    EXPECT_EQ(r.coreApp[0], "openloop");
    // Serving runs end at the horizon, not a budget exhaustion.
    EXPECT_FALSE(r.hitTimeLimit);
    EXPECT_EQ(r.runtime, cfg.serving.horizon);
}

TEST(Serving, SloMeetsTargetThatMemscaleMissesAtLowerEnergy)
{
    // The acceptance point: at 0.5 Mreq/s with a 3 us p99 target, the
    // CPI-bound memscale policy (which only sees per-epoch slack, not
    // the tail) over-throttles the bus and blows the target, while
    // the SLO policy holds p99 at the target with real savings.
    SystemConfig cfg = serveConfig();
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    RunResult mem = runPolicy(cfg, "memscale", rest);
    RunResult slo = runPolicy(cfg, "slo", rest);

    expectConservation(mem.serving);
    expectConservation(slo.serving);

    const double target = cfg.serving.sloP99Us;
    EXPECT_GT(mem.serving.p99Us, target)
        << "memscale was expected to miss the target here";
    EXPECT_LE(slo.serving.p99Us, target);
    EXPECT_LT(slo.energy.total(), base.energy.total());
    // SLO trades some of memscale's savings for the met target, but
    // must not give all of them back.
    EXPECT_LT(mem.energy.total(), slo.energy.total());
}

TEST(Serving, SloDegradesToNominalUnderOverload)
{
    // 20 Mreq/s is ~3x this system's service capacity: queues grow
    // without bound and no frequency can meet any target, so the SLO
    // policy must pin the bus at nominal (800 MHz) and match the
    // baseline's behaviour rather than chase savings.
    SystemConfig cfg = serveConfig(20.0e6);
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    RunResult slo = runPolicy(cfg, "slo", rest);

    expectConservation(slo.serving);
    EXPECT_GT(slo.serving.queuedAtEnd, 0u);
    ASSERT_FALSE(slo.timeline.empty());
    for (const EpochRecord &er : slo.timeline)
        EXPECT_EQ(er.busMHz, 800u);
    // Pinned at nominal, the overloaded run serves exactly what the
    // baseline serves.
    EXPECT_EQ(slo.serving.completed, base.serving.completed);
    EXPECT_DOUBLE_EQ(slo.serving.p99Us, base.serving.p99Us);
}

TEST(Serving, BoundedQueueDropsAndConserves)
{
    SystemConfig cfg = serveConfig(20.0e6);
    cfg.serving.maxQueue = 8;
    Watts rest = 0.0;
    RunResult r = runBaseline(cfg, rest);

    const ServingStats &s = r.serving;
    expectConservation(s);
    EXPECT_GT(s.dropped, 0u);
    EXPECT_LE(s.queuePeak, 8u);
    EXPECT_LE(s.queuedAtEnd, 8u);
    // The bounded queue caps waiting time, so the tail stays finite
    // even at 3x overload.
    EXPECT_LT(s.p99Us, latencyHistMaxUs);
}

TEST(Serving, ObservabilityRecordsServingColumns)
{
    SystemConfig cfg = serveConfig();
    cfg.observe = true;
    auto policy = makePolicy("slo");
    System sys(cfg, *policy);
    RunResult r = sys.run();

    ASSERT_TRUE(r.obs);
    EXPECT_GT(r.obs->epochs(), 0u);
    const std::vector<std::string> &names = r.obs->columnNames();
    auto has = [&](const std::string &n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("serving.completed"));
    EXPECT_TRUE(has("serving.queueDepth"));
    EXPECT_TRUE(has("serving.latencyUs.p99"));
    EXPECT_TRUE(has("policy.lastP99Us"));
}

TEST(Serving, CpuPowerModelChargesWorkers)
{
    // Serving + explicit CPU power (the coordinated-DVFS extension):
    // each ServingWorker is charged active power for its busy
    // fraction and leakage otherwise, so cpu energy is positive but
    // bounded by every core running flat out for the whole horizon.
    SystemConfig cfg = serveConfig();
    cfg.modelCpuPower = true;
    Watts rest = 0.0;
    RunResult r = runBaseline(cfg, rest);

    expectConservation(r.serving);
    EXPECT_GT(r.energy.cpu, 0.0);
    const double horizon_sec = tickToSec(cfg.serving.horizon);
    const Watts flat_out =
        cfg.power.cpuCorePower(cfg.power.cpuNominalGHz, 1.0);
    EXPECT_LT(r.energy.cpu,
              cfg.numCores * flat_out * horizon_sec * (1.0 + 1e-9));
    // At 0.5 Mreq/s the workers are mostly idle, so the charged
    // energy sits well below the flat-out bound too.
    EXPECT_LT(r.energy.cpu,
              0.5 * cfg.numCores * flat_out * horizon_sec);

    // The modelled-CPU run remains behaviourally identical: only the
    // energy accounting moves (out of rest, into cpu).
    SystemConfig plain = serveConfig();
    Watts rest2 = 0.0;
    RunResult p = runBaseline(plain, rest2);
    EXPECT_EQ(p.serving.completed, r.serving.completed);
    EXPECT_DOUBLE_EQ(p.serving.p99Us, r.serving.p99Us);
    EXPECT_DOUBLE_EQ(r.energy.dram(), p.energy.dram());
}

TEST(Serving, LongHorizonLadderMigrationResumes)
{
    // 150 ms of open-loop traffic, far past the few-ms horizons above:
    // at 0.02 Mreq/s ranks idle long enough to sink down the ladder
    // between requests, while refresh, the consolidation pass and the
    // epoch loop run for thousands of periods under the strict
    // checker.  Cut at 120 ms, the resumed run must land on the
    // uninterrupted run's result bit for bit.
    SystemConfig cfg;
    cfg.mixName = "OPENLOOP-LADDER";
    cfg.numCores = 4;
    cfg.epochLen = msToTick(1.0);
    cfg.profileLen = usToTick(100.0);
    cfg.seed = 4242;
    cfg.protocolCheck = true;
    cfg.strictCheck = true;
    cfg.mem.ladder.migrate = true;
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind = ArrivalKind::Poisson;
    cfg.serving.arrival.ratePerSec = 0.02e6;
    cfg.serving.horizon = msToTick(150.0);

    const RunResult whole = runPolicy(cfg, "memscale-ladder", 150.0);
    EXPECT_GT(whole.commandsChecked, 0u);
    EXPECT_EQ(whole.protocolViolations, 0u);
    expectConservation(whole.serving);
    EXPECT_GT(whole.serving.completed, 2500u);
    EXPECT_GT(whole.counters.pdDemotions, 0u);
    EXPECT_GT(whole.counters.migrations, 0u);

    const RunResult resumed =
        runPolicySharded(cfg, "memscale-ladder", 150.0,
                         {msToTick(120.0)}, test::tempPath("long_horizon"));
    EXPECT_EQ(resumed.protocolViolations, 0u);
    EXPECT_EQ(hashRunResult(resumed), hashRunResult(whole));
}
