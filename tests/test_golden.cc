/**
 * @file
 * Golden-hash regression tests.
 *
 * Every Table-1 mix is run under the MemScale policy at a fixed seed
 * and its entire observable state (counters, energy, per-core CPI,
 * per-epoch decisions) is folded into one StateHasher digest; the
 * digests below pin the simulator's exact behaviour.  Those runs take
 * 1-2 epochs each, so multi-epoch rows run one mix per class plus MID3
 * for 11-37 epochs to pin the epoch loop itself.  A separate golden
 * pins the Fig. 7 MID3 timeline (the apsi phase change) at per-epoch
 * granularity.
 *
 * These hashes are sensitive to any behavioural change, including
 * last-ulp floating-point drift.  After an *intended* change,
 * regenerate with:
 *
 *     MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
 *
 * and paste the printed tables over the arrays below (see DESIGN.md,
 * "Golden regeneration").  Digests assume one toolchain/platform; if
 * this suite fails while every other test passes, suspect a compiler
 * or libm change before suspecting the simulator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "check/state_hash.hh"
#include "common/config.hh"
#include "harness/cluster.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

bool
regenMode()
{
    const char *v = envSwitch(EnvSwitch::RegenGoldens);
    return v && v[0] == '1';
}

/** The fixed scenario behind every golden below. */
SystemConfig
goldenConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 500'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    cfg.seed = 12345;
    return cfg;
}

/** Fixed rest-of-system wattage: keeps the golden independent of the
 *  (also-deterministic, but expensive) baseline calibration run. */
constexpr Watts GoldenRestWatts = 150.0;

std::uint64_t
mixHash(const std::string &mix)
{
    RunResult r = runPolicy(goldenConfig(mix), "memscale",
                            GoldenRestWatts);
    return hashRunResult(r);
}

struct Golden
{
    const char *mix;
    std::uint64_t hash;
};

// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const Golden kMixGoldens[] = {
    {"ILP1", 0xd1158a80e0af0e5dull},
    {"ILP2", 0x2f504d2e2cae9519ull},
    {"ILP3", 0xfa10f55364eecab3ull},
    {"ILP4", 0x62ba5174726ca439ull},
    {"MID1", 0x509463a53f9d2cfdull},
    {"MID2", 0x3d07fe3443a23bf9ull},
    {"MID3", 0x4b661fcc09e5c09cull},
    {"MID4", 0x495a27873ad027b5ull},
    {"MEM1", 0xca48ba699770c4caull},
    {"MEM2", 0x595add51021fc4a0ull},
    {"MEM3", 0x854aead6f21f5ad3ull},
    {"MEM4", 0xf54146f9b9d37d26ull},
};

/**
 * Idle-ladder rows: the same fixed scenario under MemScale composed
 * with the adaptive demotion ladder and migration-based rank
 * consolidation.  These pin the ladder walk-downs, the deep-state
 * residency accounting, and the consolidation remap/copy traffic —
 * one mix per workload class keeps the suite fast.
 */
std::uint64_t
ladderHash(const std::string &mix)
{
    SystemConfig cfg = goldenConfig(mix);
    cfg.mem.ladder.migrate = true;
    RunResult r = runPolicy(cfg, "memscale-ladder", GoldenRestWatts);
    return hashRunResult(r);
}

// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const Golden kLadderGoldens[] = {
    {"ILP2", 0x1685a82a793ecbf9ull},
    {"MID3", 0x870cf98612d85499ull},
    {"MEM1", 0x8daca523ae6501b6ull},
};

/**
 * The fixed scenario at an 8x budget (10-37 epochs instead of 1-2),
 * run at the rest-of-system draw its baseline calibrates, as the bench
 * drivers run it.  At the fixed 150 W the slack rarely binds, so the
 * short rows above cannot see how it is banked and spent.
 */
RunResult
multiEpochRun(const std::string &mix, const std::string &policy,
              bool model_cpu_power = false)
{
    SystemConfig cfg = goldenConfig(mix);
    cfg.instrBudget = 4'000'000;
    cfg.modelCpuPower = model_cpu_power;
    Watts rest = 0.0;
    runBaseline(cfg, rest);
    return runPolicy(cfg, policy, rest);
}

/**
 * Multi-epoch rows: memscale on one mix per class plus MID3 (the
 * Fig. 7 mix).  These pin the epoch loop itself: each of them changes
 * when MemScale's guard band (`ctx.gamma * 0.95`) moves, which leaves
 * every row of kMixGoldens as it was.
 */
// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const Golden kMultiEpochGoldens[] = {
    {"ILP1", 0xf9a13185fc5dcc54ull},
    {"MID2", 0x2da1deca5ba6d9e6ull},
    {"MID3", 0x439798b4ed01425dull},
    {"MEM4", 0x7774daa2110184b6ull},
};

/** Fewest epoch decisions a multi-epoch row may take. */
constexpr std::size_t kMultiEpochMin = 8;

/**
 * Dynamic-policy rows: the MemScale-family policies that no other
 * golden runs, on MID4 in the multi-epoch scenario (about 17 epochs),
 * so slack is banked and spent many times and every policy changes
 * its choice mid-run.  At the fixed 150 W, the slack never binds
 * memscale-perchannel and coscale never slows the cores.  coscale
 * runs with the CPU power model on, as abl_coscale runs it.  These
 * pin the slack banking, the (memory x CPU clock) grid walk and the
 * per-channel search.
 */
std::uint64_t
dynamicPolicyHash(const std::string &policy)
{
    return hashRunResult(
        multiEpochRun("MID4", policy, policy == "coscale"));
}

struct PolicyGolden
{
    const char *policy;
    std::uint64_t hash;
};

// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const PolicyGolden kDynamicPolicyGoldens[] = {
    {"coscale", 0xb105dabbc426bb1eull},
    {"memscale-perchannel", 0x271ee3b287a16cccull},
    {"memscale-memenergy", 0x7df4d2ae8de12392ull},
    {"memscale-fastpd", 0xb6005cf4301d1c39ull},
};

/**
 * Fixed-setting rows: every policy that makePolicy() builds as a
 * StaticPolicy, on the short MEM1 scenario.  Each row pins one table
 * row's bus clock, powerdown mode, device clock or throttle cap; no
 * other golden runs a fixed policy.
 */
std::uint64_t
fixedPolicyHash(const std::string &policy)
{
    return hashRunResult(
        runPolicy(goldenConfig("MEM1"), policy, GoldenRestWatts));
}

// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const PolicyGolden kFixedPolicyGoldens[] = {
    {"baseline", 0xaeb661cf1f977658ull},
    {"static", 0xb844c7f6960f11fdull},
    {"fastpd", 0xe1c9f38dce21871dull},
    {"slowpd", 0xf894454a2c06dd6bull},
    {"srpd", 0x817f10712a307607ull},
    {"srslowpd", 0x97685dc9923fff92ull},
    {"deeppd", 0x1b2f4d12383c1816ull},
    {"ladder", 0x8ceb05a160d20933ull},
    {"throttle", 0x0fb7b4e15ad1d008ull},
    {"decoupled", 0xbc8b6d092c1fba34ull},
};

/** Fig. 7 scenario: MID3 under MemScale, per-epoch decisions only. */
std::uint64_t
fig7TimelineHash()
{
    RunResult r = runPolicy(goldenConfig("MID3"), "memscale",
                            GoldenRestWatts);
    StateHasher h;
    h.add("epochs", static_cast<std::uint64_t>(r.timeline.size()));
    for (const EpochRecord &e : r.timeline) {
        h.add("start", e.start);
        h.add("end", e.end);
        h.add("busMHz", static_cast<std::uint64_t>(e.busMHz));
        h.add("cpuGHz", e.cpuGHz);
        h.add("channelUtil", e.channelUtil);
        for (double cpi : e.coreCpi)
            h.add("cpi", cpi);
    }
    return h.digest();
}

constexpr std::uint64_t kFig7TimelineGolden = 0xb09fbb1b049d062eull;

/**
 * Fleet scenario: test_cluster's template (3 open-loop servers, 0.2 ms
 * coordination epochs over a 0.6 ms horizon, calibrated rest power).
 * The row digest covers what the coordinator saw and decided each
 * epoch; the fleet hash alone would miss a wrong telemetry read under
 * uncapped memscale, where measured power never feeds back.
 */
ClusterConfig
fleetGoldenConfig(const std::string &policy, Watts cap)
{
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

    ClusterConfig c;
    c.numServers = 3;
    c.server = cfg;
    c.policy = policy;
    c.capW = cap;
    c.coordEpoch = msToTick(0.2);
    return c;
}

std::uint64_t
fleetRowsHash(const FleetResult &r)
{
    StateHasher h;
    h.add("epochs", static_cast<std::uint64_t>(r.epochs.size()));
    for (const FleetEpochRow &row : r.epochs) {
        for (double b : row.budgetW)
            h.add("budgetW", b);
        for (double m : row.measuredW)
            h.add("measuredW", m);
        h.add("fleetW", row.fleetW);
        h.add("allocFeasible", row.allocFeasible);
    }
    return h.digest();
}

/** Uncapped memscale, then fastcap at 0.95x memscale's mean draw. */
std::vector<FleetResult>
fleetGoldenRuns()
{
    FleetResult mem =
        ClusterHarness(fleetGoldenConfig("memscale", 0.0)).run();
    double sum = 0.0;
    for (const FleetEpochRow &row : mem.epochs)
        sum += row.fleetW;
    const Watts cap =
        0.95 * sum / static_cast<double>(mem.epochs.size());
    FleetResult fast =
        ClusterHarness(fleetGoldenConfig("fastcap", cap)).run();
    return {mem, fast};
}

struct FleetGolden
{
    const char *policy;
    std::uint64_t fleetHash;
    std::uint64_t rowsHash;
};

// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const FleetGolden kFleetGoldens[] = {
    {"memscale", 0x533b139aa348acdeull, 0x633d59db45e62a6aull},
    {"fastcap", 0x45f78f365b7878aaull, 0x1e6843a55237d4b4ull},
};

/** FNV-1a digest of a file's bytes (0 when it cannot be read). */
std::uint64_t
fileHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    StateHasher h;
    h.addBytes(bytes.data(), bytes.size());
    return h.digest();
}

/** Step `cfg` under `policy` to `cut` and write a checkpoint there. */
void
cutSystem(const SystemConfig &cfg, const std::string &policy, Tick cut,
          const std::string &path)
{
    SystemConfig c = cfg;
    c.restWatts = GoldenRestWatts;
    auto p = makePolicy(policy);
    System sys(c, *p);
    if (sys.advance(cut))
        sys.checkpoint(path);
}

/**
 * Snapshot-encoding scenario: cut files from a closed-loop memscale
 * run, a ladder run with migration, the protocol checker and the
 * epoch recorder on, a Poisson serving run under slo, and a 2-server
 * fastcap fleet (the fleet file plus both per-server files).  The
 * digests pin the file bytes, so any change to the snapshot layout
 * shows here even when every resumed result still matches.
 */
std::vector<std::pair<std::string, std::uint64_t>>
snapshotFileHashes()
{
    const std::string dir = test::tempPath("golden_");
    std::vector<std::pair<std::string, std::uint64_t>> out;
    auto take = [&](const std::string &label, const std::string &path) {
        out.emplace_back(label, fileHash(path));
        std::remove(path.c_str());
    };

    cutSystem(goldenConfig("MID3"), "memscale", msToTick(0.15),
              dir + "mid3.snap");
    take("MID3/memscale", dir + "mid3.snap");

    SystemConfig ladder = goldenConfig("MID1");
    ladder.mem.ladder.migrate = true;
    ladder.protocolCheck = true;
    ladder.observe = true;
    cutSystem(ladder, "memscale-ladder", msToTick(0.15),
              dir + "ladder.snap");
    take("MID1/memscale-ladder", dir + "ladder.snap");

    SystemConfig serve;
    serve.mixName = "OPENLOOP";
    serve.numCores = 8;
    serve.epochLen = msToTick(0.1);
    serve.profileLen = usToTick(10.0);
    serve.seed = 12345;
    serve.serving.enabled = true;
    serve.serving.arrival.kind = ArrivalKind::Poisson;
    serve.serving.arrival.ratePerSec = 2.0e6;
    serve.serving.horizon = msToTick(0.5);
    serve.serving.sloP99Us = 3.0;
    cutSystem(serve, "slo", msToTick(0.25), dir + "serve.snap");
    take("OPENLOOP/slo", dir + "serve.snap");

    ClusterConfig fleet;
    fleet.numServers = 2;
    fleet.server = serve;
    fleet.server.modelCpuPower = true;
    fleet.server.restWatts = GoldenRestWatts;
    fleet.policy = "fastcap";
    fleet.capW = 320.0;
    fleet.coordEpoch = msToTick(0.1);
    ClusterHarness cut(fleet);
    cut.advance(2);
    cut.checkpoint(dir + "fleet");
    take("fleet", dir + "fleet");
    take("fleet.server0", dir + "fleet.server0");
    take("fleet.server1", dir + "fleet.server1");
    return out;
}

struct SnapshotGolden
{
    const char *file;
    std::uint64_t hash;
};

// Regenerate: MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden
const SnapshotGolden kSnapshotGoldens[] = {
    {"MID3/memscale", 0x2101e40b5cfadbe4ull},
    {"MID1/memscale-ladder", 0x68abbf423b117fb8ull},
    {"OPENLOOP/slo", 0x0bad4b3752d34a7aull},
    {"fleet", 0x45ac2ed268f8448dull},
    {"fleet.server0", 0x28f04e3fa44921efull},
    {"fleet.server1", 0xfc4d4a160277ad6eull},
};

} // namespace

TEST(Golden, MixHashesMatch)
{
    if (regenMode()) {
        std::printf("const Golden kMixGoldens[] = {\n");
        for (const Golden &g : kMixGoldens) {
            std::printf("    {\"%s\", 0x%016llxull},\n", g.mix,
                        static_cast<unsigned long long>(
                            mixHash(g.mix)));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    for (const Golden &g : kMixGoldens) {
        EXPECT_EQ(mixHash(g.mix), g.hash)
            << g.mix
            << ": behaviour changed; if intended, regenerate with "
               "MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden";
    }
}

TEST(Golden, LadderMixHashesMatch)
{
    if (regenMode()) {
        std::printf("const Golden kLadderGoldens[] = {\n");
        for (const Golden &g : kLadderGoldens) {
            std::printf("    {\"%s\", 0x%016llxull},\n", g.mix,
                        static_cast<unsigned long long>(
                            ladderHash(g.mix)));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    for (const Golden &g : kLadderGoldens) {
        EXPECT_EQ(ladderHash(g.mix), g.hash)
            << g.mix
            << " (ladder): behaviour changed; if intended, regenerate "
               "with MEMSCALE_REGEN_GOLDENS=1 "
               "./build/tests/test_golden";
    }
}

TEST(Golden, MultiEpochMixHashesMatch)
{
    if (regenMode()) {
        std::printf("const Golden kMultiEpochGoldens[] = {\n");
        for (const Golden &g : kMultiEpochGoldens) {
            std::printf("    {\"%s\", 0x%016llxull},\n", g.mix,
                        static_cast<unsigned long long>(hashRunResult(
                            multiEpochRun(g.mix, "memscale"))));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    for (const Golden &g : kMultiEpochGoldens) {
        const RunResult r = multiEpochRun(g.mix, "memscale");
        EXPECT_GE(r.timeline.size(), kMultiEpochMin) << g.mix;
        EXPECT_EQ(hashRunResult(r), g.hash)
            << g.mix
            << " (multi-epoch): behaviour changed; if intended, "
               "regenerate with MEMSCALE_REGEN_GOLDENS=1 "
               "./build/tests/test_golden";
    }
}

TEST(Golden, DynamicPolicyHashesMatch)
{
    if (regenMode()) {
        std::printf("const PolicyGolden kDynamicPolicyGoldens[] = {\n");
        for (const PolicyGolden &g : kDynamicPolicyGoldens) {
            std::printf("    {\"%s\", 0x%016llxull},\n", g.policy,
                        static_cast<unsigned long long>(
                            dynamicPolicyHash(g.policy)));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    for (const PolicyGolden &g : kDynamicPolicyGoldens) {
        EXPECT_EQ(dynamicPolicyHash(g.policy), g.hash)
            << g.policy
            << ": behaviour changed; if intended, regenerate with "
               "MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden";
    }
}

TEST(Golden, FixedPolicyHashesMatch)
{
    if (regenMode()) {
        std::printf("const PolicyGolden kFixedPolicyGoldens[] = {\n");
        for (const PolicyGolden &g : kFixedPolicyGoldens) {
            std::printf("    {\"%s\", 0x%016llxull},\n", g.policy,
                        static_cast<unsigned long long>(
                            fixedPolicyHash(g.policy)));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    for (const PolicyGolden &g : kFixedPolicyGoldens) {
        EXPECT_EQ(fixedPolicyHash(g.policy), g.hash)
            << g.policy
            << ": behaviour changed; if intended, regenerate with "
               "MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden";
    }
}

TEST(Golden, LadderOffLeavesMixHashesUntouched)
{
    // The flattened/hashed surface is gated on ladder activity: with
    // the ladder disabled the digests must equal the plain goldens
    // above, byte for byte — that is what lets kMixGoldens survive
    // this PR unregenerated.
    EXPECT_EQ(mixHash("MID1"), kMixGoldens[4].hash);
    EXPECT_NE(ladderHash("MID3"), kMixGoldens[6].hash);
}

TEST(Golden, Fig7ApsiTimelineMatches)
{
    if (regenMode()) {
        std::printf("constexpr std::uint64_t kFig7TimelineGolden = "
                    "0x%016llxull;\n",
                    static_cast<unsigned long long>(
                        fig7TimelineHash()));
        GTEST_SKIP() << "regenerated golden printed above";
    }
    EXPECT_EQ(fig7TimelineHash(), kFig7TimelineGolden)
        << "MID3/apsi per-epoch timeline changed; if intended, "
           "regenerate with MEMSCALE_REGEN_GOLDENS=1 "
           "./build/tests/test_golden";
}

TEST(Golden, FleetHashesMatch)
{
    const std::vector<FleetResult> runs = fleetGoldenRuns();
    if (regenMode()) {
        std::printf("const FleetGolden kFleetGoldens[] = {\n");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull},\n",
                        kFleetGoldens[i].policy,
                        static_cast<unsigned long long>(
                            runs[i].fleetHash),
                        static_cast<unsigned long long>(
                            fleetRowsHash(runs[i])));
        }
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    ASSERT_EQ(runs.size(), std::size(kFleetGoldens));
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const FleetGolden &g = kFleetGoldens[i];
        EXPECT_EQ(runs[i].fleetHash, g.fleetHash)
            << g.policy
            << " fleet: behaviour changed; if intended, regenerate "
               "with MEMSCALE_REGEN_GOLDENS=1 "
               "./build/tests/test_golden";
        EXPECT_EQ(fleetRowsHash(runs[i]), g.rowsHash)
            << g.policy << " fleet: per-epoch power rows changed";
    }
}

TEST(Golden, SnapshotBytesMatch)
{
    const auto files = snapshotFileHashes();
    if (regenMode()) {
        std::printf("const SnapshotGolden kSnapshotGoldens[] = {\n");
        for (const auto &[file, hash] : files)
            std::printf("    {\"%s\", 0x%016llxull},\n", file.c_str(),
                        static_cast<unsigned long long>(hash));
        std::printf("};\n");
        GTEST_SKIP() << "regenerated goldens printed above";
    }
    ASSERT_EQ(files.size(), std::size(kSnapshotGoldens));
    for (std::size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(files[i].first, kSnapshotGoldens[i].file);
        EXPECT_EQ(files[i].second, kSnapshotGoldens[i].hash)
            << files[i].first
            << ": snapshot bytes changed; if intended, bump "
               "snapshotVersion and regenerate with "
               "MEMSCALE_REGEN_GOLDENS=1 ./build/tests/test_golden";
    }
}

TEST(Golden, HashIsRunToRunStable)
{
    // The digest itself must be deterministic, or the goldens above
    // would be meaningless.
    EXPECT_EQ(mixHash("MID1"), mixHash("MID1"));
}

TEST(Golden, ObservabilityIsBehaviourFree)
{
    // Attaching the stat registry + epoch recorder must not perturb
    // the simulation by a single bit: the observe run's digest has to
    // equal the plain run's, epoch for epoch.  This is the contract
    // that lets --trace-out ride along on any experiment without
    // invalidating the goldens above.
    SystemConfig plain = goldenConfig("MID2");
    SystemConfig observed = goldenConfig("MID2");
    observed.observe = true;

    RunResult off = runPolicy(plain, "memscale", GoldenRestWatts);
    RunResult on = runPolicy(observed, "memscale", GoldenRestWatts);
    EXPECT_EQ(hashRunResult(on), hashRunResult(off));

    // The recorder exists only on the observe run, and captured
    // exactly one row per epoch decision.
    EXPECT_EQ(off.obs, nullptr);
    ASSERT_TRUE(on.obs);
    EXPECT_EQ(on.obs->epochs(), on.timeline.size());
    EXPECT_EQ(off.timeline.size(), on.timeline.size());
}

TEST(Golden, HashDistinguishesSeeds)
{
    SystemConfig a = goldenConfig("MID1");
    SystemConfig b = goldenConfig("MID1");
    b.seed = 54321;
    RunResult ra = runPolicy(a, "memscale", GoldenRestWatts);
    RunResult rb = runPolicy(b, "memscale", GoldenRestWatts);
    EXPECT_NE(hashRunResult(ra), hashRunResult(rb));
}
