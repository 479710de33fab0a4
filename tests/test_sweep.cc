/**
 * @file
 * Tests for the parallel sweep engine: thread-count invariance of
 * results, exception propagation out of worker tasks,
 * oversubscription, and the experiment-level helpers.  Built with
 * -DMEMSCALE_TSAN=ON this suite doubles as the data-race check for
 * the pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "harness/differential.hh"
#include "harness/sweep.hh"
#include "obs/trace_writer.hh"
#include "workload/mixes.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

/** A cheap deterministic stand-in for a simulation run. */
std::uint64_t
hashTask(std::size_t i)
{
    std::uint64_t h = deriveSeed(42, i);
    for (int k = 0; k < 100; ++k)
        h = splitmix64(h + k);
    return h;
}

SystemConfig
tinyConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 50000;
    cfg.epochLen = msToTick(0.25);
    cfg.profileLen = usToTick(25.0);
    return cfg;
}

} // namespace

TEST(SweepEngine, ResolveJobsPrefersExplicit)
{
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_GE(resolveJobs(0), 1u);
}

TEST(SweepEngine, ResolveJobsRejectsInvalidEnv)
{
    // A bad MEMSCALE_JOBS must stop the run instead of quietly
    // falling back to every hardware thread.  Empty and "0" mean
    // auto; an explicit request never reads the variable.
    const char *saved = std::getenv("MEMSCALE_JOBS");
    const std::string restore = saved ? saved : "";
    for (const char *bad : {"abc", "4x", "-2", "2.5"}) {
        setenv("MEMSCALE_JOBS", bad, 1);
        EXPECT_THROW(resolveJobs(0), FatalError) << bad;
        EXPECT_EQ(resolveJobs(2), 2u) << bad;
    }
    setenv("MEMSCALE_JOBS", "3", 1);
    EXPECT_EQ(resolveJobs(0), 3u);
    for (const char *autoJobs : {"", "0"}) {
        setenv("MEMSCALE_JOBS", autoJobs, 1);
        EXPECT_GE(resolveJobs(0), 1u) << '"' << autoJobs << '"';
    }
    if (saved)
        setenv("MEMSCALE_JOBS", restore.c_str(), 1);
    else
        unsetenv("MEMSCALE_JOBS");
}

TEST(SweepEngine, CheckedJobsGuardsUserInput)
{
    // A negative jobs= must die cleanly, not get cast to unsigned and
    // spawn four billion threads; absurd values clamp to MaxJobs.
    EXPECT_THROW(checkedJobs(-3), FatalError);
    EXPECT_EQ(checkedJobs(0), 0u);
    EXPECT_EQ(checkedJobs(8), 8u);
    EXPECT_EQ(checkedJobs(1ll << 40), MaxJobs);
}

TEST(SweepEngine, MapPreservesTaskOrder)
{
    SweepEngine eng(4);
    std::vector<std::uint64_t> out = eng.map<std::uint64_t>(
        100, [](std::size_t i) { return hashTask(i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], hashTask(i)) << "task " << i;
}

TEST(SweepEngine, ThreadCountInvariance)
{
    // 1, 2, and 8 threads must produce identical aggregated results
    // (results are keyed by task index, not completion order).
    std::vector<std::vector<std::uint64_t>> runs;
    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepEngine eng(jobs);
        EXPECT_EQ(eng.jobs(), jobs);
        runs.push_back(eng.map<std::uint64_t>(
            257, [](std::size_t i) { return hashTask(i * 31); }));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(SweepEngine, ThreadCountInvarianceFullRuns)
{
    // End-to-end: whole-system comparisons must not depend on the
    // worker count either (each task owns its System + EventQueue).
    auto sweep = [](unsigned jobs) {
        SweepEngine eng(jobs);
        std::vector<SweepCase> cases;
        for (const char *mix : {"ILP1", "MID2", "MEM2"})
            cases.push_back(SweepCase{tinyConfig(mix), "memscale"});
        std::vector<double> out;
        for (const ComparisonResult &r : compareCases(eng, cases)) {
            out.push_back(r.memEnergySavings);
            out.push_back(r.sysEnergySavings);
            out.push_back(r.worstCpiIncrease);
        }
        return out;
    };
    std::vector<double> serial = sweep(1);
    std::vector<double> parallel = sweep(8);
    // Byte-identical, not approximately equal.
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "metric " << i;
}

TEST(SweepEngine, IdenticalConfigsHashIdenticallyAcrossWorkers)
{
    // Eight copies of the *same* configuration spread across eight
    // workers must produce bit-identical runs.  Any hidden coupling
    // between worker threads and the simulation (a shared RNG, a
    // thread-keyed cache, iteration-order dependence) shows up here
    // as a digest mismatch between replicas.
    SweepEngine eng(8);
    SystemConfig cfg = tinyConfig("MID1");
    std::vector<std::uint64_t> digests = eng.map<std::uint64_t>(
        8, [&](std::size_t) {
            return hashRunResult(runPolicy(cfg, "memscale", 150.0));
        });
    for (std::size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0]) << "replica " << i;

    // And the parallel digests must match a serial reference run.
    std::uint64_t serial =
        hashRunResult(runPolicy(cfg, "memscale", 150.0));
    EXPECT_EQ(digests[0], serial);
}

TEST(SweepEngine, PoolStateDoesNotLeakAcrossSweepTasks)
{
    // Each sweep task owns a System, and with it a MemoryController
    // whose RequestPool recycles request storage for the whole run.
    // Interleave two different configurations so every worker services
    // both back to back: if any pooled request state survived from a
    // previous task (a stale client pointer, a non-reset field), the
    // replica digests would diverge from the serial references.
    SweepEngine eng(4);
    SystemConfig a = tinyConfig("MID1");
    SystemConfig b = tinyConfig("MEM2");
    std::vector<std::uint64_t> digests = eng.map<std::uint64_t>(
        8, [&](std::size_t i) {
            const SystemConfig &cfg = (i % 2 == 0) ? a : b;
            return hashRunResult(runPolicy(cfg, "memscale", 150.0));
        });
    std::uint64_t serialA =
        hashRunResult(runPolicy(a, "memscale", 150.0));
    std::uint64_t serialB =
        hashRunResult(runPolicy(b, "memscale", 150.0));
    for (std::size_t i = 0; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], i % 2 == 0 ? serialA : serialB)
            << "task " << i;
}

TEST(SweepEngine, ObservabilityExportsAreJobCountInvariant)
{
    // With observability on, the recorded epoch buffers — and every
    // byte of the exported CSV / Chrome-trace text — must be identical
    // whether the sweep ran serially or on eight workers.  Each run
    // owns its registry + recorder, and floats are printed with
    // round-trip precision, so any divergence here is a real
    // scheduling leak.
    auto sweep = [](unsigned jobs) {
        SweepEngine eng(jobs);
        std::vector<SweepCase> cases;
        for (const char *mix : {"MID1", "MEM2"}) {
            SystemConfig cfg = tinyConfig(mix);
            cfg.observe = true;
            cases.push_back(SweepCase{cfg, "memscale"});
        }
        std::vector<std::string> out;
        for (const ComparisonResult &r : compareCases(eng, cases)) {
            EXPECT_TRUE(r.policy.obs);
            out.push_back(r.policy.obs->toCsv());
            out.push_back(chromeTraceJson(*r.policy.obs));
        }
        return out;
    };
    std::vector<std::string> serial = sweep(1);
    std::vector<std::string> parallel = sweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "export " << i;
}

TEST(SweepEngine, ShardedRunsAreThreadCountInvariant)
{
    // Time-sharding through the sweep engine: each task runs its mix
    // as a chain of three checkpoints (shard -> resume -> ... ->
    // finish).  The final result hash must match the unsharded run,
    // and — because snapshots contain nothing environmental — the
    // intermediate snapshot *files* must be byte-identical whether
    // the sweep ran on one worker or eight.
    const std::vector<std::string> mixes = {"ILP1", "MID2", "MEM2"};
    auto readAll = [](const std::string &path) {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr) << path;
        std::string bytes;
        char buf[4096];
        std::size_t got;
        while (f && (got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.append(buf, got);
        if (f)
            std::fclose(f);
        return bytes;
    };
    struct ShardOut
    {
        std::uint64_t finalHash = 0;
        std::vector<std::string> shardBytes;
    };
    auto sweep = [&](unsigned jobs) {
        SweepEngine eng(jobs);
        return eng.map<ShardOut>(mixes.size(), [&](std::size_t i) {
            SystemConfig cfg = tinyConfig(mixes[i]);
            RunResult full = runPolicy(cfg, "memscale", 150.0);
            const Tick r = full.runtime;
            const std::string prefix = test::tempPath(
                "sweep_shard_" + mixes[i] + "_j" + std::to_string(jobs));
            RunResult sharded =
                runPolicySharded(cfg, "memscale", 150.0,
                                 {r / 4, r / 2, 3 * r / 4}, prefix);
            ShardOut out;
            out.finalHash = hashRunResult(sharded);
            EXPECT_EQ(out.finalHash, hashRunResult(full))
                << mixes[i];
            for (int s = 0; s < 3; ++s) {
                std::string path =
                    prefix + ".shard" + std::to_string(s);
                out.shardBytes.push_back(readAll(path));
                std::remove(path.c_str());
            }
            return out;
        });
    };
    std::vector<ShardOut> serial = sweep(1);
    std::vector<ShardOut> parallel = sweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].finalHash, parallel[i].finalHash)
            << mixes[i];
        ASSERT_EQ(serial[i].shardBytes.size(),
                  parallel[i].shardBytes.size());
        for (std::size_t s = 0; s < serial[i].shardBytes.size(); ++s) {
            EXPECT_FALSE(serial[i].shardBytes[s].empty())
                << mixes[i] << " shard " << s;
            EXPECT_EQ(serial[i].shardBytes[s],
                      parallel[i].shardBytes[s])
                << mixes[i] << " shard " << s << " differs by "
                << "thread count";
        }
    }
}

TEST(SweepEngine, Oversubscription)
{
    // Far more tasks than workers: everything still runs exactly once.
    SweepEngine eng(8);
    std::vector<std::atomic<int>> hits(500);
    eng.forEach(500, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(SweepEngine, MoreWorkersThanTasks)
{
    SweepEngine eng(8);
    std::vector<std::uint64_t> out =
        eng.map<std::uint64_t>(3, [](std::size_t i) { return i + 7; });
    EXPECT_EQ(out, (std::vector<std::uint64_t>{7, 8, 9}));
}

TEST(SweepEngine, EmptyBatch)
{
    SweepEngine eng(4);
    int calls = 0;
    eng.forEach(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(SweepEngine, ExceptionPropagates)
{
    SweepEngine eng(4);
    EXPECT_THROW(
        eng.forEach(50,
                    [](std::size_t i) {
                        if (i == 13)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(SweepEngine, LowestIndexedExceptionWins)
{
    // Several tasks fail; the rethrown error must deterministically be
    // the lowest-indexed one, regardless of completion order.
    SweepEngine eng(8);
    for (int round = 0; round < 5; ++round) {
        try {
            eng.forEach(64, [](std::size_t i) {
                if (i % 2 == 1)
                    throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "1");
        }
    }
}

TEST(SweepEngine, RemainingTasksRunAfterFailure)
{
    SweepEngine eng(4);
    std::vector<std::atomic<int>> hits(40);
    EXPECT_THROW(eng.forEach(40,
                             [&](std::size_t i) {
                                 hits[i].fetch_add(1);
                                 if (i == 0)
                                     throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(SweepEngine, FatalErrorPropagates)
{
    SweepEngine eng(2);
    EXPECT_THROW(eng.forEach(4,
                             [](std::size_t i) {
                                 if (i == 2)
                                     fatal("task-level user error");
                             }),
                 FatalError);
}

TEST(SweepEngine, ReusableAcrossBatches)
{
    SweepEngine eng(4);
    for (int round = 0; round < 10; ++round) {
        std::vector<std::uint64_t> out = eng.map<std::uint64_t>(
            17, [round](std::size_t i) { return i * (round + 1); });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * (round + 1));
    }
}

TEST(SweepHelpers, CompareAveragedMatchesEngineOverload)
{
    SystemConfig cfg = tinyConfig("MID1");
    AveragedComparison serial = compareAveraged(cfg, "memscale", 3);
    SweepEngine eng(8);
    AveragedComparison parallel =
        compareAveraged(eng, cfg, "memscale", 3);
    EXPECT_EQ(serial.seeds, parallel.seeds);
    EXPECT_EQ(serial.memEnergySavings.mean,
              parallel.memEnergySavings.mean);
    EXPECT_EQ(serial.memEnergySavings.stddev,
              parallel.memEnergySavings.stddev);
    EXPECT_EQ(serial.sysEnergySavings.mean,
              parallel.sysEnergySavings.mean);
    EXPECT_EQ(serial.worstCpiIncrease.max,
              parallel.worstCpiIncrease.max);
    EXPECT_GE(serial.memEnergySavings.stddev, 0.0);
}

TEST(SweepHelpers, PolicyGridIndexing)
{
    SweepEngine eng(4);
    std::vector<SystemConfig> cfgs = {tinyConfig("MID1"),
                                      tinyConfig("MEM2")};
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    ASSERT_EQ(bases.size(), 2u);
    EXPECT_GT(bases[0].rest, 0.0);

    std::vector<std::string> policies = {"static", "memscale"};
    std::vector<ComparisonResult> grid =
        comparePolicyGrid(eng, cfgs, bases, policies);
    ASSERT_EQ(grid.size(), 4u);
    // Row-major by policy: [p * cfgs + i].
    EXPECT_EQ(grid[0].policy.policyName, "static");
    EXPECT_EQ(grid[0].policy.mixName, "MID1");
    EXPECT_EQ(grid[1].policy.mixName, "MEM2");
    EXPECT_EQ(grid[2].policy.policyName, "memscale");
    EXPECT_EQ(grid[3].policy.policyName, "memscale");
    EXPECT_EQ(grid[3].policy.mixName, "MEM2");
}

namespace
{

/** hashComparison() of every result, in case order. */
std::vector<std::uint64_t>
comparisonHashes(const std::vector<ComparisonResult> &results)
{
    std::vector<std::uint64_t> out;
    for (const ComparisonResult &r : results)
        out.push_back(hashComparison(r));
    return out;
}

/** The FatalError message of `fn`, or "" if it returned. */
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

} // namespace

TEST(RunMemo, RepeatedCasesSimulateOnce)
{
    // Five cases, three distinct comparisons: two baselines (MID1,
    // MEM2) and three policy runs.  Each engine simulates those five
    // runs once and returns, for every repeat, what an engine that saw
    // each case alone returns.
    const std::vector<SweepCase> cases = {
        {tinyConfig("MID1"), "memscale"},
        {tinyConfig("MEM2"), "memscale"},
        {tinyConfig("MID1"), "memscale"},
        {tinyConfig("MID1"), "fastpd"},
        {tinyConfig("MEM2"), "memscale"},
    };
    std::vector<std::uint64_t> alone;
    for (const SweepCase &c : cases) {
        SweepEngine eng(1);
        alone.push_back(hashComparison(compareCases(eng, {c})[0]));
    }
    for (unsigned jobs : {1u, 4u}) {
        SweepEngine eng(jobs);
        EXPECT_EQ(comparisonHashes(compareCases(eng, cases)), alone)
            << "jobs=" << jobs;
        EXPECT_EQ(eng.runsSimulated(), 5u) << "jobs=" << jobs;
        // A second sweep over the same cases is all memo hits.
        EXPECT_EQ(comparisonHashes(compareCases(eng, cases)), alone);
        EXPECT_EQ(eng.runsSimulated(), 5u);

        // The Fig. 9 shape after the Fig. 5 one: the MID1 baseline and
        // its memscale run are already in the memo; only the static
        // run is new.
        const std::vector<SystemConfig> cfgs = {tinyConfig("MID1")};
        std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
        std::vector<ComparisonResult> grid = comparePolicyGrid(
            eng, cfgs, bases, {"memscale", "static"});
        EXPECT_EQ(hashComparison(grid[0]), alone[0]);
        EXPECT_EQ(eng.runsSimulated(), 6u) << "jobs=" << jobs;
    }
}

TEST(RunMemo, DistinctRunsAreNeverMerged)
{
    // Every variant differs from its reference in one field only, and
    // each field changes what the run computes, so each must be
    // simulated on its own.
    struct Variant
    {
        const char *what;
        std::string policy;
        std::function<void(SystemConfig &)> mutate;
    };
    const std::vector<Variant> variants = {
        {"restWatts", "memscale",
         [](SystemConfig &c) { c.restWatts += 10.0; }},
        {"powerCapW", "fastcap",
         [](SystemConfig &c) { c.powerCapW = 250.0; }},
        {"strictCheck", "memscale",
         [](SystemConfig &c) { c.strictCheck = true; }},
        {"seed", "memscale", [](SystemConfig &c) { ++c.seed; }},
        {"mem.pagePolicy", "memscale",
         [](SystemConfig &c) { c.mem.pagePolicy = PagePolicy::OpenPage; }},
        {"mem.ladder.migrate", "memscale",
         [](SystemConfig &c) { c.mem.ladder.migrate = true; }},
        {"customApps", "memscale",
         [](SystemConfig &c) {
             c.customApps = {appForCore(mixByName(c.mixName), 0)};
         }},
    };
    SystemConfig ref = tinyConfig("MID1");
    ref.restWatts = 150.0;
    SweepEngine eng(4);
    for (const Variant &v : variants) {
        SystemConfig cfg = ref;
        v.mutate(cfg);
        EXPECT_NE(runIdentity(ref, *makePolicy(v.policy)),
                  runIdentity(cfg, *makePolicy(v.policy)))
            << v.what;
        eng.simulate(ref, v.policy);
        const std::size_t before = eng.runsSimulated();
        const RunResult got = eng.simulate(cfg, v.policy);
        EXPECT_EQ(eng.runsSimulated(), before + 1) << v.what;
        EXPECT_EQ(hashRunResult(got), hashRunResult(simulate(cfg, v.policy)))
            << v.what;
    }
    // memscale and fastcap references, plus one run per variant.
    EXPECT_EQ(eng.runsSimulated(), 2u + variants.size());
}

TEST(RunMemo, ResumedRunsSkipTheMemo)
{
    // A resumed run's state comes from its snapshot, not its config,
    // so it is simulated on every call.
    SystemConfig cfg = tinyConfig("MID2");
    cfg.restWatts = 150.0;
    const RunResult full = simulate(cfg, "memscale");
    const std::string path = test::tempPath("memo_resume.snap");
    {
        auto p = makePolicy("memscale");
        System sys(cfg, *p);
        ASSERT_TRUE(sys.advance(full.runtime / 2));
        sys.checkpoint(path);
    }
    SystemConfig resumed = cfg;
    resumed.resumePath = path;
    SweepEngine eng(2);
    std::vector<std::uint64_t> hashes = eng.map<std::uint64_t>(
        3, [&](std::size_t) {
            return hashRunResult(eng.simulate(resumed, "memscale"));
        });
    EXPECT_EQ(eng.runsSimulated(), 3u);
    for (std::uint64_t h : hashes)
        EXPECT_EQ(h, hashRunResult(full));
    std::remove(path.c_str());
}

TEST(RunMemo, FailedRunRethrowsInEveryTaskThatSharesIt)
{
    // threads=2 is refused by the System constructor, so these runs
    // fail.  Tasks 1 and 3 share one failing baseline; task 2 fails on
    // its own with a different message.
    SystemConfig bad2 = tinyConfig("MID1");
    bad2.threads = 2;
    SystemConfig bad3 = bad2;
    bad3.threads = 3;
    const std::vector<SweepCase> cases = {
        {tinyConfig("ILP1"), "memscale"},
        {bad2, "memscale"},
        {bad3, "memscale"},
        {bad2, "memscale"},
    };
    for (int round = 0; round < 3; ++round) {
        SweepEngine eng(4);
        const std::string msg =
            fatalMessage([&] { compareCases(eng, cases); });
        EXPECT_NE(msg.find("threads=2"), std::string::npos) << msg;
        // ILP1's two runs, one failing baseline per distinct config.
        EXPECT_EQ(eng.runsSimulated(), 4u);

        // Every task that needs the failed run gets its error, and
        // asking again does not simulate it again.
        std::vector<std::string> msgs = eng.map<std::string>(
            4, [&](std::size_t) {
                return fatalMessage([&] {
                    eng.simulate(withRestWatts(bad2, 0.0), "baseline");
                });
            });
        for (const std::string &m : msgs)
            EXPECT_NE(m.find("threads=2"), std::string::npos) << m;
        EXPECT_EQ(eng.runsSimulated(), 4u);
    }
}

TEST(SweepEngine, SkewedCostsKeepResultsByIndex)
{
    // Costs that disagree with the index order (reversed, tied, zero,
    // negative) change only which worker runs a task and when.
    const std::size_t n = 257;
    std::vector<double> cost(n);
    for (std::size_t i = 0; i < n; ++i)
        cost[i] = static_cast<double>((i * 7919) % 13) - 3.0;
    cost[0] = 1e12;
    SweepEngine serial(1);
    const std::vector<std::uint64_t> want = serial.map<std::uint64_t>(
        n, [](std::size_t i) { return hashTask(i); });
    for (unsigned jobs : {2u, 4u, 8u}) {
        SweepEngine eng(jobs);
        std::vector<std::atomic<int>> hits(n);
        std::vector<std::uint64_t> got = eng.map<std::uint64_t>(
            n,
            [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
                return hashTask(i);
            },
            cost);
        EXPECT_EQ(got, want) << "jobs=" << jobs;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }

    // Whole runs under a cost vector that puts the cheapest first.
    const std::vector<std::string> mixes = {"ILP1", "MID2", "MEM2",
                                            "MID1"};
    auto digests = [&](unsigned jobs, const std::vector<double> &c) {
        SweepEngine eng(jobs);
        return eng.map<std::uint64_t>(
            mixes.size(),
            [&](std::size_t i) {
                return hashRunResult(
                    runPolicy(tinyConfig(mixes[i]), "memscale", 150.0));
            },
            c);
    };
    EXPECT_EQ(digests(4, {0.0, 1.0, -5.0, 1.0}), digests(1, {}));

    EXPECT_THROW(serial.forEach(3, [](std::size_t) {}, {1.0}),
                 FatalError);
}

TEST(SweepEngine, CostedBatchStartsWithTheCostliestTasks)
{
    // Dealt round-robin by descending cost, each of the four workers
    // holds one of the four costliest tasks at the front of its deque.
    // Every task waits until four have started, so no worker can run
    // ahead and steal before the others take their first task.
    SweepEngine eng(4);
    std::vector<double> cost(12);
    for (std::size_t i = 0; i < cost.size(); ++i)
        cost[i] = static_cast<double>(i);
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::size_t> first;
    eng.forEach(
        cost.size(),
        [&](std::size_t i) {
            std::unique_lock<std::mutex> lk(m);
            if (first.size() < 4) {
                first.push_back(i);
                cv.notify_all();
                cv.wait(lk, [&] { return first.size() == 4; });
            }
        },
        cost);
    std::sort(first.begin(), first.end());
    EXPECT_EQ(first, (std::vector<std::size_t>{8, 9, 10, 11}));
}

TEST(SweepHelpers, PredictedCostOrdersRuns)
{
    // MEM mixes miss far more often than ILP ones, and cost scales
    // with the budget; a serving run costs arrivals x misses.
    SystemConfig ilp = tinyConfig("ILP1");
    SystemConfig mem = tinyConfig("MEM1");
    EXPECT_GT(predictedCost(mem), 4.0 * predictedCost(ilp));
    SystemConfig longer = mem;
    longer.instrBudget *= 2;
    EXPECT_NEAR(predictedCost(longer), 2.0 * predictedCost(mem),
                1e-6 * predictedCost(longer));

    SystemConfig serve = tinyConfig("MID1");
    serve.serving.enabled = true;
    serve.serving.arrival.ratePerSec = 1.0e6;
    serve.serving.horizon = msToTick(2.0);
    serve.serving.missesPerRequest = 8.0;
    EXPECT_DOUBLE_EQ(predictedCost(serve), 16000.0);
}
