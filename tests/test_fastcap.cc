/**
 * @file
 * FastCap invariant tests (ctest label `cluster`): fuzzed property
 * checks of the fleet budget allocator (cap never exceeded,
 * work-conserving, floors honoured, weight monotonicity), Jain's
 * index sanity, and end-to-end behaviour of the fastcap policy on one
 * server — the predicted operating point fits the budget every epoch,
 * uncapped runs never slow down, and tighter caps trade monotonically
 * more slowdown for less energy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "harness/cluster.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "memscale/policies/fastcap_policy.hh"

using namespace memscale;

namespace
{

std::vector<ServerTelemetry>
fuzzTelemetry(Rng &rng, std::size_t n)
{
    std::vector<ServerTelemetry> t(n);
    for (ServerTelemetry &s : t) {
        s.valid = true;
        s.minW = 5.0 + rng.uniform() * 40.0;
        s.demandW = s.minW + rng.uniform() * 80.0;
        s.measuredW = s.demandW;
    }
    return t;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** The calibrated serving operating point shared by the e2e tests. */
SystemConfig
capConfig()
{
    SystemConfig cfg;
    cfg.mixName = "OPENLOOP";
    cfg.numCores = 8;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.seed = 12345;
    cfg.modelCpuPower = true;
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind = ArrivalKind::Poisson;
    cfg.serving.arrival.ratePerSec = 0.5e6;
    cfg.serving.horizon = msToTick(1.0);
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// allocateFleetBudget: fuzzed invariants
// ---------------------------------------------------------------------

TEST(FastCapAllocator, FuzzedInvariants)
{
    Rng rng(0xFA57CA9);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t n = 1 + rng.next() % 12;
        std::vector<ServerTelemetry> tele = fuzzTelemetry(rng, n);
        std::vector<double> weights;
        if (rng.chance(0.5)) {
            weights.resize(n);
            for (double &w : weights)
                w = 0.25 + rng.uniform() * 4.0;
        }
        double sum_min = 0.0;
        double sum_demand = 0.0;
        for (const ServerTelemetry &t : tele) {
            sum_min += t.minW;
            sum_demand += t.demandW;
        }
        // Caps from "impossible" (below the floors) to "slack"
        // (above the demand) so every allocator branch is exercised.
        const Watts cap =
            0.5 * sum_min + rng.uniform() * (1.2 * sum_demand);
        if (!(cap > 0.0))
            continue;

        BudgetAllocation a = allocateFleetBudget(cap, tele, weights);
        ASSERT_EQ(a.budgetW.size(), n);

        const double total = sum(a.budgetW);
        const double eps = 1e-9 * (1.0 + cap + sum_demand);

        // Invariant 1: predicted fleet power never exceeds the cap
        // (unless even the floors do, which is flagged infeasible).
        if (a.feasible) {
            EXPECT_LE(total, cap + eps)
                << "trial " << trial << " n=" << n;
        }
        // Invariant 2: work-conserving — either every server got its
        // full demand, or the cap is exhausted.
        EXPECT_GE(total, std::min(cap, sum_demand) - 1e-6 * cap)
            << "trial " << trial << " n=" << n;
        for (std::size_t k = 0; k < n; ++k) {
            // No budget above demand, none below zero.
            EXPECT_LE(a.budgetW[k], tele[k].demandW + eps);
            EXPECT_GE(a.budgetW[k], -eps);
            // Floors honoured whenever they fit collectively.
            if (sum_min <= cap) {
                EXPECT_GE(a.budgetW[k], tele[k].minW - eps)
                    << "trial " << trial << " server " << k;
            }
        }
        EXPECT_EQ(a.feasible, sum_min <= cap);
    }
}

TEST(FastCapAllocator, SlackCapGrantsEveryDemand)
{
    Rng rng(7);
    std::vector<ServerTelemetry> tele = fuzzTelemetry(rng, 6);
    double sum_demand = 0.0;
    for (const ServerTelemetry &t : tele)
        sum_demand += t.demandW;
    BudgetAllocation a =
        allocateFleetBudget(sum_demand * 2.0, tele, {});
    for (std::size_t k = 0; k < tele.size(); ++k)
        EXPECT_DOUBLE_EQ(a.budgetW[k], tele[k].demandW);
    EXPECT_TRUE(a.feasible);
}

TEST(FastCapAllocator, InfeasibleFloorsScaleProportionally)
{
    std::vector<ServerTelemetry> tele(2);
    tele[0].minW = 30.0;
    tele[0].demandW = 50.0;
    tele[1].minW = 60.0;
    tele[1].demandW = 90.0;
    // Cap below sum(min)=90: floors scale by 60/90, nothing else.
    BudgetAllocation a = allocateFleetBudget(60.0, tele, {});
    EXPECT_FALSE(a.feasible);
    EXPECT_DOUBLE_EQ(a.budgetW[0], 60.0 * 30.0 / 90.0);
    EXPECT_DOUBLE_EQ(a.budgetW[1], 60.0 * 60.0 / 90.0);
}

TEST(FastCapAllocator, WeightMonotoneForEqualServers)
{
    // Two identical servers, weight 3 vs 1, cap covering the floors
    // plus half the spans: the heavier weight reaches its demand
    // first and must receive at least the lighter server's grant.
    std::vector<ServerTelemetry> tele(2);
    for (ServerTelemetry &t : tele) {
        t.minW = 20.0;
        t.demandW = 100.0;
    }
    BudgetAllocation a =
        allocateFleetBudget(120.0, tele, {3.0, 1.0});
    EXPECT_GT(a.budgetW[0], a.budgetW[1]);
    EXPECT_NEAR(a.budgetW[0] + a.budgetW[1], 120.0, 1e-6);
    // Equal weights split the same cap evenly.
    BudgetAllocation e = allocateFleetBudget(120.0, tele, {});
    EXPECT_NEAR(e.budgetW[0], e.budgetW[1], 1e-9);
}

TEST(FastCapAllocator, WeightsCycleOverFleet)
{
    std::vector<ServerTelemetry> tele(4);
    for (ServerTelemetry &t : tele) {
        t.minW = 10.0;
        t.demandW = 60.0;
    }
    // weights {2,1} cycle to {2,1,2,1}: servers 0/2 match, 1/3 match.
    BudgetAllocation a = allocateFleetBudget(140.0, tele, {2.0, 1.0});
    EXPECT_NEAR(a.budgetW[0], a.budgetW[2], 1e-9);
    EXPECT_NEAR(a.budgetW[1], a.budgetW[3], 1e-9);
    EXPECT_GT(a.budgetW[0], a.budgetW[1]);
}

// ---------------------------------------------------------------------
// Jain's index
// ---------------------------------------------------------------------

TEST(JainIndex, KnownValues)
{
    EXPECT_DOUBLE_EQ(jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(jainIndex({3.0, 3.0, 3.0}), 1.0);
    // One server hogging everything: index collapses to 1/n.
    EXPECT_NEAR(jainIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
    // Bounds for arbitrary positive vectors.
    Rng rng(99);
    for (int t = 0; t < 100; ++t) {
        std::vector<double> x(2 + rng.next() % 10);
        for (double &v : x)
            v = rng.uniform() + 1e-3;
        const double j = jainIndex(x);
        EXPECT_GE(j, 1.0 / static_cast<double>(x.size()) - 1e-12);
        EXPECT_LE(j, 1.0 + 1e-12);
    }
}

// ---------------------------------------------------------------------
// FastCap policy end to end (one server)
// ---------------------------------------------------------------------

TEST(FastCapPolicyRun, UncappedNeverSlowsDown)
{
    SystemConfig cfg = capConfig();
    Watts rest = 0.0;
    runBaseline(cfg, rest);
    cfg.restWatts = rest;

    FastCapPolicy p("fastcap");
    System sys(cfg, p);
    RunResult r = sys.run();

    const FastCapTelemetry &t = p.telemetry();
    ASSERT_TRUE(t.valid);
    EXPECT_GT(t.epochs, 0u);
    EXPECT_EQ(t.infeasibleEpochs, 0u);
    // With no budget the policy always picks the fastest pair.
    EXPECT_DOUBLE_EQ(t.slowdown, 1.0);
    EXPECT_DOUBLE_EQ(t.budgetW, 0.0);
    EXPECT_GT(t.demandW, 0.0);
    EXPECT_GE(t.demandW, t.minW);
    EXPECT_TRUE(r.serving.valid);
}

TEST(FastCapPolicyRun, PredictionFitsBudgetEveryEpoch)
{
    SystemConfig cfg = capConfig();
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    cfg.restWatts = rest;

    // A cap at 90% of the measured uncapped draw: tight enough to
    // bind, loose enough that the min-power pair always fits.
    const Watts uncapped =
        base.energy.total() / tickToSec(base.runtime);
    cfg.powerCapW = 0.9 * uncapped;

    FastCapPolicy p("fastcap");
    System sys(cfg, p);
    RunResult r = sys.run();

    const FastCapTelemetry &t = p.telemetry();
    ASSERT_TRUE(t.valid);
    EXPECT_GT(t.epochs, 0u);
    EXPECT_EQ(t.infeasibleEpochs, 0u);
    // The selection invariant: every epoch's chosen pair predicted
    // within headroom * budget — maxChosenW is the running max.
    EXPECT_LE(t.maxChosenW,
              p.options().headroom * cfg.powerCapW * (1.0 + 1e-9));
    EXPECT_DOUBLE_EQ(t.budgetW, cfg.powerCapW);
    // Capped runs spend less than the uncapped baseline.
    EXPECT_LT(r.energy.total(), base.energy.total());
}

TEST(FastCapPolicyRun, TighterCapMoreSlowdownLessPower)
{
    SystemConfig cfg = capConfig();
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    cfg.restWatts = rest;
    const Watts uncapped =
        base.energy.total() / tickToSec(base.runtime);

    auto run_at = [&](double frac, FastCapTelemetry &tele_out) {
        SystemConfig c = cfg;
        c.powerCapW = frac * uncapped;
        FastCapPolicy p("fastcap");
        System sys(c, p);
        RunResult r = sys.run();
        tele_out = p.telemetry();
        return r;
    };

    FastCapTelemetry loose_t, tight_t;
    RunResult loose = run_at(0.95, loose_t);
    RunResult tight = run_at(0.75, tight_t);

    ASSERT_TRUE(loose_t.valid);
    ASSERT_TRUE(tight_t.valid);
    EXPECT_GE(tight_t.slowdown, loose_t.slowdown);
    EXPECT_LT(tight.energy.total(), loose.energy.total());
    // Throttling deeper cannot improve the tail.
    EXPECT_GE(tight.serving.p99Us, loose.serving.p99Us);
}

TEST(FastCapPolicyRun, ImpossibleBudgetDegradesToFloor)
{
    SystemConfig cfg = capConfig();
    Watts rest = 0.0;
    runBaseline(cfg, rest);
    cfg.restWatts = rest;
    // 1 W can never fit rest-of-system draw: every epoch is
    // infeasible and the policy pins the min-power pair.
    cfg.powerCapW = 1.0;

    FastCapPolicy p("fastcap");
    System sys(cfg, p);
    RunResult r = sys.run();

    const FastCapTelemetry &t = p.telemetry();
    ASSERT_TRUE(t.valid);
    EXPECT_GT(t.epochs, 0u);
    EXPECT_EQ(t.infeasibleEpochs, t.epochs);
    EXPECT_GE(t.slowdown, 1.0);
    EXPECT_TRUE(r.serving.valid);
}
