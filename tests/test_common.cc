/**
 * @file
 * Unit tests for common utilities: unit conversions, RNG determinism
 * and distribution sanity, statistics accumulators, config parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "common/config.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace memscale;

TEST(Units, Conversions)
{
    EXPECT_EQ(nsToTick(1.0), 1000u);
    EXPECT_EQ(usToTick(1.0), 1000u * 1000);
    EXPECT_EQ(msToTick(1.0), 1000ull * 1000 * 1000);
    EXPECT_DOUBLE_EQ(tickToNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(tickToMs(msToTick(5.0)), 5.0);
}

TEST(Units, PeriodFromMHz)
{
    EXPECT_EQ(periodFromMHz(800.0), 1250u);   // 1.25 ns
    EXPECT_EQ(periodFromMHz(200.0), 5000u);   // 5 ns
    EXPECT_EQ(periodFromMHz(4000.0), 250u);   // 4 GHz CPU
    // 667 MHz is not integral; check rounding is within 1 ps.
    Tick p = periodFromMHz(667.0);
    EXPECT_NEAR(static_cast<double>(p), 1.0e6 / 667.0, 0.5);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ExponentialMean)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, GeometricMean)
{
    Rng r(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(0.1));
    EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, ChanceProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (r.chance(0.25))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ForkIndependence)
{
    Rng a(5);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(Rng, SplitMix64KnownValues)
{
    // Reference values of the splitmix64 stream seeded with 0
    // (Vigna's test vector / wikipedia reference implementation).
    EXPECT_EQ(splitmix64(0x9e3779b97f4a7c15ull),
              0xe220a8397b1dcdafull);
    // The finalizer is a bijection, so distinct inputs cannot agree.
    EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(Rng, DeriveSeedNoAdjacentCollisions)
{
    // The old additive scheme (base + i * 7919) collided across
    // adjacent bases; the splitmix64 scheme must keep every derived
    // stream of nearby base seeds distinct.
    std::set<std::uint64_t> seen;
    for (std::uint64_t base = 12345; base < 12345 + 64; ++base)
        for (std::uint64_t i = 0; i < 64; ++i)
            seen.insert(deriveSeed(base, i));
    EXPECT_EQ(seen.size(), 64u * 64u);
    // index 0 is already decorrelated from the base seed.
    EXPECT_NE(deriveSeed(99, 0), 99u);
}

TEST(Rng, DeriveSeedDeterministic)
{
    EXPECT_EQ(deriveSeed(7, 3), deriveSeed(7, 3));
    EXPECT_NE(deriveSeed(7, 3), deriveSeed(7, 4));
    EXPECT_NE(deriveSeed(7, 3), deriveSeed(8, 3));
}

TEST(Accumulator, Basic)
{
    Accumulator a;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        a.add(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_DOUBLE_EQ(a.sum(), 10.0);
    EXPECT_NEAR(a.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, Empty)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, WelfordResistsCatastrophicCancellation)
{
    // A long sweep of near-identical large values: the naive
    // E[x^2] - E[x]^2 formula loses all significant digits here (and
    // can go negative); Welford's online update must not.
    Accumulator a;
    const double base = 1e9;
    for (int i = 0; i < 100000; ++i)
        a.add(base + (i % 2 ? 1e-3 : -1e-3));
    EXPECT_GE(a.variance(), 0.0);
    EXPECT_NEAR(a.variance(), 1e-6, 1e-8);
    EXPECT_GE(a.stddev(), 0.0);
    EXPECT_NEAR(a.mean(), base, 1e-3);
}

TEST(Accumulator, VarianceNeverNegative)
{
    // Identical samples: variance must clamp to exactly 0, not a
    // tiny negative rounding residue.
    Accumulator a;
    for (int i = 0; i < 1000; ++i)
        a.add(0.1 + 1e9);
    EXPECT_GE(a.variance(), 0.0);
    EXPECT_GE(a.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesSerial)
{
    // Chan's parallel merge must agree with one serial pass.
    Accumulator serial, left, right;
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(-5.0, 5.0);
        serial.add(x);
        (i < 700 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), serial.count());
    EXPECT_NEAR(left.mean(), serial.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), serial.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), serial.min());
    EXPECT_DOUBLE_EQ(left.max(), serial.max());
    EXPECT_GE(left.variance(), 0.0);
}

TEST(Accumulator, MergeWithEmpty)
{
    Accumulator a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Histogram, BucketsAndPercentiles)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
    h.add(-1.0);
    h.add(1000.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, InvalidRangeFatal)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
}

TEST(Config, ParseAndTypes)
{
    Config c;
    const char *argv[] = {"prog", "mix=MEM1", "budget=1000",
                          "gamma=0.05", "verbose=true"};
    c.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(c.getString("mix", "x"), "MEM1");
    EXPECT_EQ(c.getInt("budget", 0), 1000);
    EXPECT_DOUBLE_EQ(c.getDouble("gamma", 0.0), 0.05);
    EXPECT_TRUE(c.getBool("verbose", false));
    EXPECT_EQ(c.getInt("missing", 7), 7);
}

TEST(Config, DashDashForms)
{
    // Sweep drivers take --jobs 8 / --jobs=8 alongside bare key=value.
    Config c;
    const char *argv[] = {"prog", "--jobs=8",  "--mix",  "MEM3",
                          "seed=5", "--verbose", "true"};
    c.parseArgs(7, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("jobs", 0), 8);
    EXPECT_EQ(c.getString("mix", "x"), "MEM3");
    EXPECT_EQ(c.getInt("seed", 0), 5);
    EXPECT_TRUE(c.getBool("verbose", false));
}

TEST(Config, DashDashFlagBeforeKeyValue)
{
    // "--flag key=value": the next arg contains '=', so it must not be
    // consumed as --flag's value.
    Config c;
    const char *argv[] = {"prog", "--fast", "budget=10"};
    c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("budget", 0), 10);
    EXPECT_TRUE(c.getBool("fast", false));
}

TEST(Config, BareFlagsMeanOne)
{
    // A bare --flag is "1" when it is last or followed by another
    // --key, so a trailing --check needs no value.
    Config c;
    const char *argv[] = {"prog", "--check", "--jobs", "2", "--observe"};
    c.parseArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(c.getString("check", ""), "1");
    EXPECT_EQ(c.getInt("jobs", 0), 2);
    EXPECT_TRUE(c.getBool("observe", false));
}

TEST(Config, MalformedArgumentsFatal)
{
    for (const char *bad : {"budget", "-j4", "=5", "--", "--=5", "---x"}) {
        Config c;
        const char *argv[] = {"prog", bad};
        EXPECT_THROW(c.parseArgs(2, const_cast<char **>(argv)),
                     FatalError)
            << bad;
    }
    // A value may start with a single '-' (fatal later, by its reader).
    Config c;
    const char *argv[] = {"prog", "--jobs", "-3"};
    c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("jobs", 0), -3);
}

TEST(Config, IntegersAreDecimal)
{
    Config c;
    c.set("budget", "010");
    EXPECT_EQ(c.getInt("budget", 0), 10);
    c.set("seed", "08");
    EXPECT_EQ(c.getInt("seed", 0), 8);
    c.set("hex", "0x10");
    EXPECT_THROW(c.getInt("hex", 0), FatalError);
    c.set("list", "010,0x10");
    EXPECT_THROW(c.getList<std::int64_t>("list", ""), FatalError);
}

TEST(Config, UnreadKeysAreRefused)
{
    Config c;
    const char *argv[] = {"prog", "budjet=1000", "seed=3", "--check"};
    c.parseArgs(4, const_cast<char **>(argv));
    EXPECT_EQ(c.getInt("budget", 5), 5);
    EXPECT_EQ(c.getInt("seed", 0), 3);
    EXPECT_TRUE(c.has("check"));
    try {
        c.refuseUnread();
        ADD_FAILURE() << "budjet was not refused";
    } catch (const FatalError &e) {
        const std::string &msg = e.message;
        EXPECT_NE(msg.find("unknown key 'budjet'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("budget, check, seed"), std::string::npos)
            << msg;
    }
    // A key read with has() alone, or read and left at its default,
    // counts as read.
    EXPECT_EQ(c.getString("budjet", ""), "1000");
    EXPECT_NO_THROW(c.refuseUnread());
}

TEST(Config, IgnoresTheEnvironment)
{
    setenv("MEMSCALE_BUDGET", "1000", 1);
    Config c;
    EXPECT_FALSE(c.has("budget"));
    EXPECT_EQ(c.getInt("budget", 7), 7);
    EXPECT_THROW(refuseUnknownEnvSwitches(), FatalError);
    unsetenv("MEMSCALE_BUDGET");
    EXPECT_NO_THROW(refuseUnknownEnvSwitches());
}

TEST(Config, EnvSwitchesAreTheNamedList)
{
    const char *saved = std::getenv("MEMSCALE_CSV_DIR");
    const std::string restore = saved ? saved : "";
    setenv("MEMSCALE_CSV_DIR", "", 1);
    EXPECT_EQ(envSwitch(EnvSwitch::CsvDir), nullptr);
    setenv("MEMSCALE_CSV_DIR", "out", 1);
    ASSERT_NE(envSwitch(EnvSwitch::CsvDir), nullptr);
    EXPECT_STREQ(envSwitch(EnvSwitch::CsvDir), "out");
    EXPECT_NO_THROW(refuseUnknownEnvSwitches());
    if (saved)
        setenv("MEMSCALE_CSV_DIR", restore.c_str(), 1);
    else
        unsetenv("MEMSCALE_CSV_DIR");
    EXPECT_STREQ(envSwitchNames[static_cast<std::size_t>(
                     EnvSwitch::RegenGoldens)],
                 "MEMSCALE_REGEN_GOLDENS");
}

TEST(Config, BadValuesFatal)
{
    Config c;
    c.set("n", "abc");
    EXPECT_THROW(c.getInt("n", 0), FatalError);
    c.set("b", "maybe");
    EXPECT_THROW(c.getBool("b", false), FatalError);
}


TEST(Config, BoundsRefuseOutOfRangeValues)
{
    using B = Config::Bound;
    Config c;
    c.set("zero", "0");
    c.set("neg", "-1");
    c.set("nan", "nan");
    c.set("inf", "inf");
    c.set("half", "0.5");
    EXPECT_DOUBLE_EQ(c.getDouble("zero", 1.0, B::NonNegative), 0.0);
    EXPECT_DOUBLE_EQ(c.getDouble("half", 1.0, B::Positive), 0.5);
    EXPECT_THROW(c.getDouble("zero", 1.0, B::Positive), FatalError);
    EXPECT_THROW(c.getDouble("neg", 1.0, B::NonNegative), FatalError);
    EXPECT_THROW(c.getDouble("nan", 1.0, B::NonNegative), FatalError);
    EXPECT_THROW(c.getDouble("inf", 1.0, B::NonNegative), FatalError);
    EXPECT_THROW(c.getInt("zero", 1, B::Positive), FatalError);
    EXPECT_THROW(c.getInt("neg", 1, B::NonNegative), FatalError);
    EXPECT_DOUBLE_EQ(c.getDouble("neg", 1.0), -1.0);
}
