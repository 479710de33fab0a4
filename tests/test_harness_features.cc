/**
 * @file
 * Tests for harness-level features: CSV export, multi-seed averaging,
 * the self-refresh and throttling baselines, and the report helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "mem/client.hh"
#include "mem/controller.hh"
#include "sim/event_queue.hh"
#include "temp_dir.hh"

using namespace memscale;

namespace
{

SystemConfig
smallConfig(const std::string &mix)
{
    SystemConfig cfg;
    cfg.mixName = mix;
    cfg.instrBudget = 500'000;
    cfg.epochLen = msToTick(0.1);
    cfg.profileLen = usToTick(10.0);
    return cfg;
}

} // namespace

TEST(Report, CsvSerialization)
{
    Table t({"a", "b"});
    t.addRow({"1", "x,y"});
    t.addRow({"2", "say \"hi\""});
    std::string csv = t.toCsv();
    EXPECT_EQ(csv, "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n");
}

TEST(Report, CsvFileWrite)
{
    Table t({"h1", "h2"});
    t.addRow({"v1", "v2"});
    std::string path = test::tempPath("table.csv");
    t.writeCsv(path);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "h1,h2\nv1,v2\n");
    std::remove(path.c_str());
}

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Report, EnvDrivenCsvDump)
{
    setenv("MEMSCALE_CSV_DIR", test::tempDir().c_str(), 1);
    Table t({"col"});
    t.addRow({"val"});
    t.print("My Table: Dump!");
    unsetenv("MEMSCALE_CSV_DIR");
    const std::string path = test::tempPath("my-table-dump.csv");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "My Table: Dump!\ncol\nval\n");
    std::remove(path.c_str());
}

TEST(Report, SlugHelper)
{
    EXPECT_EQ(csvSlug("Fig. 5: energy savings"), "fig-5-energy-savings");
    EXPECT_EQ(csvSlug("  Mixed CASE  42  "), "mixed-case-42");
    // Never empty, never a hidden/dash-only filename.
    EXPECT_EQ(csvSlug(""), "table");
    EXPECT_EQ(csvSlug("!!! ,,, :::"), "table");
}

TEST(Report, CsvTitleEscaping)
{
    // Titles with commas and quotes must survive as one escaped CSV
    // field, not split the header line.
    Table t({"a"});
    t.addRow({"1"});
    std::string csv = t.toCsv("mem 17-71%, sys \"6-31%\"");
    EXPECT_EQ(csv, "\"mem 17-71%, sys \"\"6-31%\"\"\"\na\n1\n");
    // No title: unchanged legacy serialization.
    EXPECT_EQ(t.toCsv(), "a\n1\n");
}

TEST(Report, SlugCollisionsGetDistinctFiles)
{
    setenv("MEMSCALE_CSV_DIR", test::tempDir().c_str(), 1);
    Table a({"x"});
    a.addRow({"first"});
    Table b({"x"});
    b.addRow({"second"});
    Table c({"x"});
    c.addRow({"third"});
    // Distinct titles, same slug: "collide-me" all three times.
    a.print("Collide, me?");
    b.print("Collide Me");
    c.print("collide:me");
    unsetenv("MEMSCALE_CSV_DIR");

    const std::string p1 = test::tempPath("collide-me.csv");
    const std::string p2 = test::tempPath("collide-me-2.csv");
    const std::string p3 = test::tempPath("collide-me-3.csv");
    std::string f1 = slurp(p1);
    std::string f2 = slurp(p2);
    std::string f3 = slurp(p3);
    EXPECT_NE(f1.find("first"), std::string::npos);
    EXPECT_NE(f2.find("second"), std::string::npos);
    EXPECT_NE(f3.find("third"), std::string::npos);
    // The first file kept its original title (not overwritten).
    EXPECT_NE(f1.find("Collide, me?"), std::string::npos);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
    std::remove(p3.c_str());
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(pct(0.256), "25.6%");
    EXPECT_EQ(pct(0.5, 0), "50%");
    EXPECT_EQ(joules(2.5), "2.500 J");
    EXPECT_EQ(joules(0.002), "2.000 mJ");
}

TEST(MultiSeed, SummarizesAcrossSeeds)
{
    SystemConfig cfg = smallConfig("MID1");
    AveragedComparison avg = compareAveraged(cfg, "memscale", 3);
    EXPECT_EQ(avg.seeds, 3u);
    EXPECT_GT(avg.memEnergySavings.mean, 0.15);
    EXPECT_GE(avg.memEnergySavings.max, avg.memEnergySavings.mean);
    EXPECT_LE(avg.memEnergySavings.min, avg.memEnergySavings.mean);
    // Seed-to-seed spread should be modest for a stable policy.
    EXPECT_LT(avg.memEnergySavings.stddev, 0.10);
    EXPECT_LT(avg.worstCpiIncrease.max, cfg.gamma + 0.03);
}

TEST(MultiSeed, ZeroSeedsFatal)
{
    SystemConfig cfg = smallConfig("MID1");
    EXPECT_THROW(compareAveraged(cfg, "memscale", 0), FatalError);
}

TEST(SystemConfigCheck, ThreadsOtherThanOneFatal)
{
    // Each System runs serially; a caller asking for worker threads
    // must fail loudly rather than silently run serial.
    for (unsigned threads : {0u, 2u, 4u}) {
        SystemConfig cfg = smallConfig("MID1");
        cfg.threads = threads;
        EXPECT_THROW(runPolicy(cfg, "memscale", 150.0), FatalError)
            << "threads=" << threads;
    }
}

TEST(SelfRefreshPolicy, DeepestIdleStateWorks)
{
    SystemConfig cfg = smallConfig("ILP2");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult fast = compareWithBase(cfg, base, rest, "fastpd");
    ComparisonResult sr = compareWithBase(cfg, base, rest, "srpd");
    // Self-refresh saves more memory energy than fast powerdown on an
    // idle-heavy ILP workload, at a larger performance cost.
    EXPECT_GT(sr.memEnergySavings, fast.memEnergySavings);
    EXPECT_GE(sr.worstCpiIncrease, fast.worstCpiIncrease);
}

TEST(SelfRefreshPolicy, SelfRefreshTimeAccounted)
{
    SystemConfig cfg = smallConfig("ILP2");
    RunResult run = runPolicy(cfg, "srpd", 50.0);
    EXPECT_GT(run.counters.rankPrePdTime, 0u);
}

TEST(ThrottlePolicy, DelaysButBarelySaves)
{
    SystemConfig cfg = smallConfig("MID2");
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    ComparisonResult thr =
        compareWithBase(cfg, base, rest, "throttle");
    ComparisonResult ms = compareWithBase(cfg, base, rest, "memscale");
    // Throttling slows things down without meaningful energy savings
    // (the paper's Section 5 argument); MemScale dominates it.
    EXPECT_GT(ms.sysEnergySavings, thr.sysEnergySavings + 0.03);
    EXPECT_GT(thr.policy.runtime, base.runtime);
}

TEST(ThrottleMechanism, CapsBusUtilization)
{
    EventQueue eq;
    MemConfig cfg;
    MemoryController mc(eq, cfg);
    mc.setThrottle(0.25);
    // Saturating traffic to one channel.
    std::uint64_t done = 0;
    FnClient client([&done](Tick) { ++done; });
    for (int i = 0; i < 400; ++i) {
        DecodedAddr d;
        d.channel = 0;
        d.bank = static_cast<std::uint32_t>(i % 8);
        d.rank = static_cast<std::uint32_t>(i % 4);
        d.row = static_cast<std::uint64_t>(i);
        mc.read(mc.addressMap().encode(d), 0, &client);
    }
    eq.runUntil();
    EXPECT_EQ(done, 400u);
    McCounters c = mc.sampleCounters();
    double util = static_cast<double>(c.busBusyTime) /
                  static_cast<double>(eq.now());
    EXPECT_LT(util, 0.27);   // capped at ~25%
}

TEST(PolicyRegistry, NewBaselinesRegistered)
{
    auto names = policyNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "srpd"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "throttle"),
              names.end());
    EXPECT_EQ(makePolicy("srpd")->name(), "srpd");
    EXPECT_EQ(makePolicy("throttle")->name(), "throttle");
}
