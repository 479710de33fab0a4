/**
 * @file
 * Fleet-simulator tests (ctest label `cluster`): run-to-run and
 * jobs=1-vs-N determinism of the fleet hash, per-server RNG stream
 * independence (server k's result never changes when the fleet
 * grows), per-server observability prefixes, and the coordination
 * acceptance property — under a rack cap, fastcap's budgets respect
 * the cap every epoch and heterogeneous fleets stay fair, while the
 * cap-oblivious memscale policy blows through the same cap.  The
 * ResumeEquivalence cases step, cut and resume whole fleets: a fleet
 * cut at any coordination boundary resumes bit-identical to the
 * uncut run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/cluster.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "obs/stat_registry.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

/** Calibrated per-server template (restWatts computed once). */
SystemConfig
serverTemplate()
{
    static SystemConfig cached = [] {
        SystemConfig cfg;
        cfg.mixName = "OPENLOOP";
        cfg.numCores = 8;
        cfg.epochLen = msToTick(0.1);
        cfg.profileLen = usToTick(10.0);
        cfg.seed = 4242;
        cfg.modelCpuPower = true;
        cfg.serving.enabled = true;
        cfg.serving.arrival.kind = ArrivalKind::Poisson;
        cfg.serving.arrival.ratePerSec = 0.5e6;
        cfg.serving.horizon = msToTick(0.6);
        cfg.serving.sloP99Us = 5.0;
        Watts rest = 0.0;
        runBaseline(cfg, rest);
        cfg.restWatts = rest;
        return cfg;
    }();
    return cached;
}

ClusterConfig
fleetConfig(std::uint32_t n)
{
    ClusterConfig c;
    c.numServers = n;
    c.server = serverTemplate();
    c.policy = "fastcap";
    c.coordEpoch = msToTick(0.2);   // 3 epochs over the 0.6 ms horizon
    return c;
}

/** Mean fleet power over all coordination epochs, W. */
Watts
meanFleetW(const FleetResult &r)
{
    double s = 0.0;
    for (const FleetEpochRow &row : r.epochs)
        s += row.fleetW;
    return s / static_cast<double>(r.epochs.size());
}

/**
 * The cut/resume scenario: 2 fastcap servers under a fixed 320 W cap
 * (binding or not, budgets must replay exactly), 5 coordination
 * epochs over a 0.5 ms horizon.  No baseline run: restWatts is fixed.
 * Two jobs, so the TSan job sees per-server cuts and resumes run on
 * the sweep pool.
 */
ClusterConfig
cutFleetConfig()
{
    ClusterConfig c;
    c.numServers = 2;
    SystemConfig &s = c.server;
    s.mixName = "OPENLOOP";
    s.numCores = 8;
    s.epochLen = msToTick(0.1);
    s.profileLen = usToTick(10.0);
    s.seed = 12345;
    s.modelCpuPower = true;
    s.restWatts = 150.0;
    s.serving.enabled = true;
    s.serving.arrival.kind = ArrivalKind::Poisson;
    s.serving.arrival.ratePerSec = 2.0e6;
    s.serving.horizon = msToTick(0.5);
    s.serving.sloP99Us = 3.0;
    c.policy = "fastcap";
    c.capW = 320.0;
    c.coordEpoch = msToTick(0.1);
    c.jobs = 2;
    return c;
}

std::string
scratch(const std::string &name)
{
    return test::tempPath("cluster_" + name);
}

/** Remove a fleet snapshot and its per-server files. */
void
removeFleetSnapshot(const std::string &path, std::uint32_t servers)
{
    std::remove(path.c_str());
    for (std::uint32_t k = 0; k < servers; ++k)
        std::remove((path + ".server" + std::to_string(k)).c_str());
}

bool
exists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f != nullptr)
        std::fclose(f);
    return f != nullptr;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The FatalError message for an action, or "" if none was thrown. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.message;
    }
    return "";
}

/** Same fleet outcome: hash, energy and every epoch row, bit for bit. */
void
expectSameFleet(const FleetResult &want, const FleetResult &got)
{
    EXPECT_EQ(got.fleetHash, want.fleetHash);
    EXPECT_EQ(got.fleetEnergyJ, want.fleetEnergyJ);
    ASSERT_EQ(got.servers.size(), want.servers.size());
    for (std::size_t k = 0; k < want.servers.size(); ++k)
        EXPECT_EQ(hashRunResult(got.servers[k]),
                  hashRunResult(want.servers[k]))
            << "server " << k;
    ASSERT_EQ(got.epochs.size(), want.epochs.size());
    for (std::size_t e = 0; e < want.epochs.size(); ++e) {
        const FleetEpochRow &a = want.epochs[e];
        const FleetEpochRow &b = got.epochs[e];
        EXPECT_EQ(b.epoch, a.epoch) << "epoch " << e;
        EXPECT_EQ(b.start, a.start) << "epoch " << e;
        EXPECT_EQ(b.end, a.end) << "epoch " << e;
        EXPECT_EQ(b.budgetW, a.budgetW) << "epoch " << e;
        EXPECT_EQ(b.measuredW, a.measuredW) << "epoch " << e;
        EXPECT_EQ(b.fleetW, a.fleetW) << "epoch " << e;
        EXPECT_EQ(b.fleetBudgetW, a.fleetBudgetW) << "epoch " << e;
        EXPECT_EQ(b.capMet, a.capMet) << "epoch " << e;
        EXPECT_EQ(b.allocFeasible, a.allocFeasible) << "epoch " << e;
    }
}

} // namespace

TEST(Cluster, ServerConfigDerivation)
{
    ClusterConfig c = fleetConfig(4);
    c.rateScale = {1.0, 2.0};
    c.server.resumePath = "/nonexistent/template.snap";
    c.server.powerCapW = 100.0;
    ClusterHarness h(c);

    SystemConfig s0 = h.serverConfig(0);
    SystemConfig s1 = h.serverConfig(1);
    SystemConfig s2 = h.serverConfig(2);
    // Independent streams, derived from the fleet seed by index only.
    EXPECT_NE(s0.seed, s1.seed);
    EXPECT_EQ(s0.seed, deriveSeed(c.server.seed, 0));
    // Rate multipliers cycle over the fleet.
    EXPECT_DOUBLE_EQ(s1.serving.arrival.ratePerSec,
                     2.0 * s0.serving.arrival.ratePerSec);
    EXPECT_DOUBLE_EQ(s2.serving.arrival.ratePerSec,
                     s0.serving.arrival.ratePerSec);
    // The template's own resume/cap knobs never leak into servers.
    EXPECT_TRUE(s0.resumePath.empty());
    EXPECT_DOUBLE_EQ(s0.powerCapW, 0.0);

    // Growing the fleet re-derives the same per-server configs.
    ClusterConfig c2 = fleetConfig(2);
    c2.rateScale = c.rateScale;
    ClusterHarness h2(c2);
    EXPECT_EQ(h2.serverConfig(1).seed, s1.seed);
}

TEST(Cluster, RunToRunDeterminism)
{
    ClusterConfig c = fleetConfig(2);
    c.capW = 0.0;

    FleetResult a = ClusterHarness(c).run();
    FleetResult b = ClusterHarness(c).run();

    ASSERT_EQ(a.servers.size(), 2u);
    ASSERT_EQ(a.epochs.size(), 3u);
    EXPECT_EQ(a.fleetHash, b.fleetHash);
    EXPECT_DOUBLE_EQ(a.fleetEnergyJ, b.fleetEnergyJ);
    for (std::size_t e = 0; e < a.epochs.size(); ++e)
        for (std::size_t k = 0; k < 2; ++k)
            EXPECT_DOUBLE_EQ(a.epochs[e].measuredW[k],
                             b.epochs[e].measuredW[k]);
}

TEST(Cluster, JobsOneVsManyIdentical)
{
    ClusterConfig c = fleetConfig(3);
    // Any fixed cap works here: the property is bit-identity across
    // thread counts, binding or not.
    c.capW = 3.0 * serverTemplate().restWatts;
    c.jobs = 1;
    FleetResult serial = ClusterHarness(c).run();
    c.jobs = 4;
    FleetResult wide = ClusterHarness(c).run();

    EXPECT_EQ(serial.fleetHash, wide.fleetHash);
    ASSERT_EQ(serial.epochs.size(), wide.epochs.size());
    for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
        ASSERT_EQ(serial.epochs[e].budgetW.size(),
                  wide.epochs[e].budgetW.size());
        for (std::size_t k = 0; k < serial.epochs[e].budgetW.size();
             ++k)
            EXPECT_DOUBLE_EQ(serial.epochs[e].budgetW[k],
                             wide.epochs[e].budgetW[k]);
        EXPECT_DOUBLE_EQ(serial.epochs[e].fleetW,
                         wide.epochs[e].fleetW);
    }
}

TEST(Cluster, ServerStreamsIndependentOfFleetSize)
{
    // Uncoordinated (cap 0) fleets of 2 and 4: servers 0 and 1 see no
    // budgets and no coupling, so their results must be bit-identical
    // across the two fleet sizes — the index-only seed-derivation
    // property that makes fleet scaling experiments comparable.
    ClusterConfig c2 = fleetConfig(2);
    ClusterConfig c4 = fleetConfig(4);
    FleetResult small = ClusterHarness(c2).run();
    FleetResult big = ClusterHarness(c4).run();

    ASSERT_EQ(small.servers.size(), 2u);
    ASSERT_EQ(big.servers.size(), 4u);
    for (std::size_t k = 0; k < 2; ++k)
        EXPECT_EQ(hashRunResult(small.servers[k]),
                  hashRunResult(big.servers[k]))
            << "server " << k << " changed when the fleet grew";
}

TEST(Cluster, ObsPrefixesPerServer)
{
    ClusterConfig c = fleetConfig(4);
    ClusterHarness h(c);
    StatRegistry reg;
    h.registerStats(reg);

    for (std::uint32_t k = 0; k < 4; ++k) {
        const std::string p = "server" + std::to_string(k);
        const auto names = reg.namesWithPrefix(p);
        EXPECT_EQ(names.size(), 4u) << p;
    }
    EXPECT_TRUE(reg.namesWithPrefix("server4").empty());
    ASSERT_FALSE(reg.namesWithPrefix("fleet").empty());

    FleetResult r = h.run();
    ASSERT_EQ(r.epochs.size(), 3u);
    EXPECT_GT(reg.read("server0.powerW"), 0.0);
    EXPECT_GT(reg.read("fleet.powerW"), 0.0);
    EXPECT_DOUBLE_EQ(reg.read("fleet.epoch"), 2.0);
    EXPECT_DOUBLE_EQ(reg.read("server1.powerW"),
                     r.epochs.back().measuredW[1]);
}

TEST(Cluster, CoordinatedCapMetWhereUncoordinatedViolates)
{
    // The acceptance property: pick a rack cap below what the
    // uncoordinated memscale fleet naturally draws.  The cap-aware
    // fastcap coordinator fits budgets and measured power under the
    // cap every epoch; memscale ignores the budgets and violates it.
    ClusterConfig probe = fleetConfig(3);
    probe.capW = 0.0;
    probe.policy = "memscale";
    FleetResult uncapped = ClusterHarness(probe).run();
    const Watts cap = 0.95 * meanFleetW(uncapped);

    ClusterConfig coord = fleetConfig(3);
    coord.capW = cap;
    FleetResult fast = ClusterHarness(coord).run();

    ClusterConfig naive = fleetConfig(3);
    naive.capW = cap;
    naive.policy = "memscale";
    FleetResult mem = ClusterHarness(naive).run();

    // Budgets respect the cap in every coordinated epoch.
    for (const FleetEpochRow &row : fast.epochs) {
        ASSERT_EQ(row.budgetW.size(), 3u);
        EXPECT_LE(row.fleetBudgetW, cap * (1.0 + 1e-9));
        EXPECT_TRUE(row.allocFeasible);
    }
    EXPECT_EQ(fast.capViolations, 0u)
        << "fastcap exceeded the cap; peak " << fast.peakEpochW
        << " W vs cap " << cap << " W";
    EXPECT_GT(mem.capViolations, 0u)
        << "memscale was expected to violate the " << cap << " W cap";
    EXPECT_LT(fast.peakEpochW, mem.peakEpochW);
    // Fitting under a cap the uncoordinated fleet violates is paid
    // for in latency, never in accounting: request conservation and
    // attainment stay well-defined on every server.
    for (const RunResult &r : fast.servers) {
        ASSERT_TRUE(r.serving.valid);
        EXPECT_EQ(r.serving.arrived,
                  r.serving.completed + r.serving.dropped +
                      r.serving.queuedAtEnd + r.serving.inServiceAtEnd);
    }
}

TEST(Cluster, HeterogeneousFleetStaysFair)
{
    ClusterConfig probe = fleetConfig(3);
    probe.rateScale = {0.5, 1.0, 2.0};
    probe.capW = 0.0;
    FleetResult uncapped = ClusterHarness(probe).run();

    ClusterConfig c = fleetConfig(3);
    c.rateScale = probe.rateScale;
    c.capW = 0.85 * meanFleetW(uncapped);
    FleetResult r = ClusterHarness(c).run();

    // Unequal load, equal weights: the water-fill still divides pain
    // evenly — per-server predicted slowdowns stay clustered.
    EXPECT_GE(r.jainSlowdown, 0.85);
    EXPECT_EQ(r.capViolations, 0u);
}

TEST(Cluster, WeightsTiltBudgets)
{
    ClusterConfig probe = fleetConfig(2);
    probe.capW = 0.0;
    FleetResult uncapped = ClusterHarness(probe).run();

    ClusterConfig c = fleetConfig(2);
    c.weights = {1.0, 3.0};
    c.capW = 0.8 * meanFleetW(uncapped);
    FleetResult r = ClusterHarness(c).run();

    for (const FleetEpochRow &row : r.epochs) {
        ASSERT_EQ(row.budgetW.size(), 2u);
        EXPECT_GE(row.budgetW[1], row.budgetW[0])
            << "epoch " << row.epoch;
    }
}

TEST(Cluster, CapMustBeFiniteAndNonNegative)
{
    // A negative or NaN cap used to run as an uncoordinated fleet.
    for (Watts cap : {-107.0, -1e-9, std::nan(""),
                      std::numeric_limits<double>::infinity()}) {
        ClusterConfig c = fleetConfig(2);
        c.capW = cap;
        const std::string msg = fatalMessage([&] { ClusterHarness h(c); });
        EXPECT_NE(msg.find("cap"), std::string::npos) << cap << ": " << msg;
    }
    // Zero still means uncoordinated.
    ClusterConfig c = fleetConfig(2);
    c.capW = 0.0;
    EXPECT_EQ(fatalMessage([&] { ClusterHarness h(c); }), "");
}

TEST(Cluster, ConstructorBuildsNoServer)
{
    // The constructor only checks the config: an unknown policy is
    // caught when advance() builds the servers, and a failed build
    // leaves none half-built behind.
    ClusterConfig c = cutFleetConfig();
    c.policy = "nope";
    ClusterHarness h(c);
    EXPECT_EQ(h.numEpochs(), 5u);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const std::string msg = fatalMessage([&] { h.advance(1); });
        EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
    }
}

// ---------------------------------------------------------------------
// Fleet-level cut/resume: a whole cluster checkpoints and resumes
// bit-identically through the "cluster" section + per-server files.
// ---------------------------------------------------------------------

TEST(ResumeEquivalence, FleetMidRunCutAndResume)
{
    const ClusterConfig base = cutFleetConfig();
    FleetResult full = ClusterHarness(base).run();
    ASSERT_EQ(full.epochs.size(), 5u);

    // Cut the fleet after two coordination epochs, then resume.
    const std::string path = scratch("fleet_cut");
    ClusterHarness head(base);
    EXPECT_TRUE(head.advance(2));
    head.checkpoint(path);

    // The fleet snapshot is introspectable without restoring it.
    FleetMeta meta = readFleetMeta(path);
    ASSERT_TRUE(meta.valid);
    EXPECT_EQ(meta.numServers, 2u);
    EXPECT_EQ(meta.policy, "fastcap");
    EXPECT_DOUBLE_EQ(meta.capW, base.capW);
    EXPECT_EQ(meta.coordEpoch, base.coordEpoch);
    EXPECT_EQ(meta.epochsDone, 2u);
    ASSERT_EQ(meta.budgetW.size(), 2u);
    EXPECT_DOUBLE_EQ(meta.lastFleetW, full.epochs[1].fleetW);
    // Ordinary per-server snapshots sit next to the fleet file.
    SnapshotMeta s0 = readSnapshotMeta(path + ".server0");
    EXPECT_EQ(s0.policyName, "fastcap");
    EXPECT_EQ(s0.now, 2 * base.coordEpoch);

    // The resumed fleet finishes bit-identical to the uncut one:
    // same fleet hash, same per-server results, same budget rows.
    ClusterConfig tail_cfg = base;
    tail_cfg.resumePath = path;
    expectSameFleet(full, ClusterHarness(tail_cfg).run());

    removeFleetSnapshot(path, 2);
}

TEST(ResumeEquivalence, FleetSteppedEveryEpoch)
{
    // Stepping one epoch at a time and cutting at every boundary
    // changes no result, and every cut resumes to the uncut run.
    const ClusterConfig base = cutFleetConfig();
    const FleetResult full = ClusterHarness(base).run();

    const std::string bad = scratch("step_bad");
    removeFleetSnapshot(bad, 2);
    ClusterHarness h(base);
    ASSERT_EQ(h.numEpochs(), 5u);
    std::string msg = fatalMessage([&] { h.checkpoint(bad); });
    EXPECT_NE(msg.find("epoch cursor 0"), std::string::npos) << msg;

    std::vector<std::string> cuts;
    for (std::size_t e = 1; e < h.numEpochs(); ++e) {
        EXPECT_TRUE(h.advance(e)) << "epoch " << e;
        cuts.push_back(scratch("step" + std::to_string(e)));
        h.checkpoint(cuts.back());
    }
    EXPECT_FALSE(h.advance(h.numEpochs()));
    msg = fatalMessage([&] { h.checkpoint(bad); });
    EXPECT_NE(msg.find("epoch cursor 5"), std::string::npos) << msg;

    expectSameFleet(full, h.finish());
    msg = fatalMessage([&] { h.checkpoint(bad); });
    EXPECT_NE(msg.find("finished"), std::string::npos) << msg;
    EXPECT_FALSE(exists(bad));
    EXPECT_FALSE(exists(bad + ".server0"));

    for (const std::string &path : cuts) {
        ClusterConfig r = base;
        r.resumePath = path;
        const FleetResult resumed = ClusterHarness(r).run();
        EXPECT_EQ(resumed.fleetHash, full.fleetHash) << path;

        // A resumed fleet can be cut again before it steps: the
        // servers are resumed on demand, and the files match.
        ClusterHarness again(r);
        again.checkpoint(bad);
        EXPECT_EQ(fileBytes(bad), fileBytes(path)) << path;
        for (int k = 0; k < 2; ++k) {
            const std::string sfx = ".server" + std::to_string(k);
            EXPECT_EQ(fileBytes(bad + sfx), fileBytes(path + sfx))
                << path << sfx;
        }
        removeFleetSnapshot(bad, 2);
        removeFleetSnapshot(path, 2);
    }
}

TEST(ResumeEquivalence, FleetResumeRejectsMismatchedConfig)
{
    const ClusterConfig base = cutFleetConfig();
    const std::string path = scratch("fleet_mismatch");
    ClusterHarness head(base);
    head.advance(1);
    head.checkpoint(path);

    auto resume = [&](ClusterConfig rcfg) {
        rcfg.resumePath = path;
        return fatalMessage([&] { ClusterHarness(rcfg).run(); });
    };

    EXPECT_EQ(resume(base), "");

    ClusterConfig bigger = base;
    bigger.numServers = 3;
    std::string msg = resume(bigger);
    EXPECT_NE(msg.find("servers"), std::string::npos) << msg;

    ClusterConfig recapped = base;
    recapped.capW = 200.0;
    msg = resume(recapped);
    EXPECT_NE(msg.find("cap"), std::string::npos) << msg;

    ClusterConfig repoliced = base;
    repoliced.policy = "memscale";
    msg = resume(repoliced);
    EXPECT_NE(msg.find("policy"), std::string::npos) << msg;

    // The constructor verifies the cluster section, as System's does
    // on resume: a mismatch is caught before any server is built.
    msg = fatalMessage([&] {
        ClusterConfig c = recapped;
        c.resumePath = path;
        ClusterHarness h(c);
    });
    EXPECT_NE(msg.find("cap"), std::string::npos) << msg;

    // An ordinary per-server snapshot is not a fleet snapshot.
    ClusterConfig notfleet = base;
    notfleet.resumePath = path + ".server0";
    msg = fatalMessage([&] { ClusterHarness(notfleet).run(); });
    EXPECT_NE(msg.find("cluster"), std::string::npos) << msg;

    removeFleetSnapshot(path, 2);
}
