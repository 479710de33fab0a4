/**
 * @file
 * Workload tests: synthetic trace-source statistics (MPKI/WPKI/phase
 * behaviour), the Table 1 mix registry (including a parameterized
 * check that every mix's synthetic RPKI approximates the paper value),
 * the LLC model, and the cache-based trace source.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "workload/address_stream.hh"
#include "workload/llc.hh"
#include "workload/mixes.hh"
#include "workload/trace_source.hh"

using namespace memscale;

namespace
{

AppProfile
flatProfile(double mpki, double wpki, double cpi = 1.0,
            double stream = 0.5)
{
    AppProfile p;
    p.name = "test";
    p.phases.push_back(AppPhase{mpki, wpki, cpi, stream, 0});
    p.footprintBytes = 16ull << 20;
    return p;
}

} // namespace

TEST(TraceSource, MpkiConverges)
{
    AppProfile p = flatProfile(5.0, 0.0);
    SyntheticTraceSource src(p, 0, 64, 42);
    TraceChunk c;
    std::uint64_t instr = 0, misses = 0;
    while (misses < 20000 && src.next(c)) {
        instr += c.instructions + 1;
        ++misses;
    }
    double mpki = 1000.0 * static_cast<double>(misses) /
                  static_cast<double>(instr);
    EXPECT_NEAR(mpki, 5.0, 0.25);
}

TEST(TraceSource, WpkiConverges)
{
    AppProfile p = flatProfile(10.0, 3.0);
    SyntheticTraceSource src(p, 0, 64, 43);
    TraceChunk c;
    std::uint64_t instr = 0, wbs = 0;
    for (int i = 0; i < 50000 && src.next(c); ++i) {
        instr += c.instructions + 1;
        if (c.hasWriteback)
            ++wbs;
    }
    double wpki = 1000.0 * static_cast<double>(wbs) /
                  static_cast<double>(instr);
    EXPECT_NEAR(wpki, 3.0, 0.3);
}

TEST(TraceSource, AddressesStayInFootprint)
{
    AppProfile p = flatProfile(10.0, 5.0);
    Addr base = 1ull << 30;
    SyntheticTraceSource src(p, base, 64, 44);
    TraceChunk c;
    for (int i = 0; i < 5000 && src.next(c); ++i) {
        EXPECT_GE(c.missAddr, base);
        EXPECT_LT(c.missAddr, base + p.footprintBytes);
        if (c.hasWriteback) {
            EXPECT_GE(c.writebackAddr, base);
            EXPECT_LT(c.writebackAddr, base + p.footprintBytes);
        }
    }
}

TEST(TraceSource, DeterministicBySeed)
{
    AppProfile p = flatProfile(2.0, 0.5);
    SyntheticTraceSource a(p, 0, 64, 7), b(p, 0, 64, 7);
    TraceChunk ca, cb;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(a.next(ca));
        ASSERT_TRUE(b.next(cb));
        EXPECT_EQ(ca.instructions, cb.instructions);
        EXPECT_EQ(ca.missAddr, cb.missAddr);
        EXPECT_EQ(ca.hasWriteback, cb.hasWriteback);
    }
}

TEST(TraceSource, PhaseTransition)
{
    AppProfile p;
    p.name = "phased";
    p.phases.push_back(AppPhase{1.0, 0.0, 1.0, 0.5, 1'000'000});
    p.phases.push_back(AppPhase{20.0, 0.0, 1.0, 0.5, 0});
    p.footprintBytes = 16ull << 20;
    SyntheticTraceSource src(p, 0, 64, 45);
    TraceChunk c;
    std::uint64_t instr = 0;
    std::uint64_t phase1_misses = 0, phase2_misses = 0;
    std::uint64_t phase2_instr = 0;
    while (instr < 2'000'000 && src.next(c)) {
        instr += c.instructions + 1;
        if (instr <= 1'000'000)
            ++phase1_misses;
        else {
            ++phase2_misses;
            phase2_instr += c.instructions + 1;
        }
    }
    double mpki1 = 1000.0 * static_cast<double>(phase1_misses) / 1e6;
    double mpki2 = 1000.0 * static_cast<double>(phase2_misses) /
                   static_cast<double>(phase2_instr);
    EXPECT_NEAR(mpki1, 1.0, 0.3);
    EXPECT_NEAR(mpki2, 20.0, 2.0);
}

TEST(TraceSource, NonLoopingProfileExhausts)
{
    AppProfile p;
    p.name = "finite";
    p.loopPhases = false;
    p.phases.push_back(AppPhase{10.0, 0.0, 1.0, 0.5, 10'000});
    p.footprintBytes = 1ull << 20;
    SyntheticTraceSource src(p, 0, 64, 46);
    TraceChunk c;
    int n = 0;
    while (src.next(c) && n < 100000)
        ++n;
    EXPECT_LT(n, 100000);   // stream ended
}

TEST(Mixes, RegistryComplete)
{
    EXPECT_EQ(allMixes().size(), 12u);
    for (const MixSpec &m : allMixes()) {
        for (const auto &app : m.apps) {
            const AppProfile &p = appByName(app);
            EXPECT_FALSE(p.phases.empty());
        }
    }
    EXPECT_THROW(mixByName("NOPE"), FatalError);
    EXPECT_THROW(appByName("nope"), FatalError);
}

class MixRpki : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MixRpki, ProfileAverageApproximatesPaper)
{
    const MixSpec &mix = allMixes()[GetParam()];
    double sum = 0.0;
    for (const auto &app : mix.apps)
        sum += appByName(app).averageMpki(canonicalBudget);
    double avg = sum / 4.0;
    // Within 15% of the paper's Table 1 value.
    EXPECT_NEAR(avg, mix.paperRpki, mix.paperRpki * 0.15 + 0.02)
        << mix.name;
}

INSTANTIATE_TEST_SUITE_P(AllMixes, MixRpki,
                         ::testing::Range(std::size_t(0),
                                          std::size_t(12)));

TEST(Mixes, ScaledProfileShrinksPhases)
{
    const AppProfile &apsi = appByName("apsi");
    AppProfile scaled = scaledProfile(apsi, 0.01);
    ASSERT_EQ(scaled.phases.size(), apsi.phases.size());
    EXPECT_EQ(scaled.phases[0].instructions,
              apsi.phases[0].instructions / 100);
    EXPECT_DOUBLE_EQ(scaled.phases[0].mpki, apsi.phases[0].mpki);
}

TEST(Mixes, AppForCoreCycles)
{
    const MixSpec &mix = mixByName("MEM1");
    EXPECT_EQ(appForCore(mix, 0).name, "swim");
    EXPECT_EQ(appForCore(mix, 4).name, "swim");
    EXPECT_EQ(appForCore(mix, 1).name, "applu");
}

TEST(Llc, HitsAfterFill)
{
    Llc llc(1 << 16, 4, 64);
    llc.access(0, false);
    EXPECT_EQ(llc.misses(), 1u);
    llc.access(0, false);
    EXPECT_EQ(llc.hits(), 1u);
}

TEST(Llc, LruEviction)
{
    // 4-way, single set: 4 * 64B cache.
    Llc llc(256, 4, 64);
    std::uint64_t sets = 1;
    for (std::uint64_t i = 0; i < 4; ++i)
        llc.access(i * 64 * sets, false);
    llc.access(0, false);            // refresh line 0
    llc.access(4 * 64, false);       // evicts LRU (line 1)
    EXPECT_EQ(llc.misses(), 5u);
    llc.access(0, false);            // still resident
    EXPECT_EQ(llc.hits(), 2u);
    llc.access(64, false);           // line 1 was evicted
    EXPECT_EQ(llc.misses(), 6u);
}

TEST(Llc, DirtyEvictionWritesBack)
{
    Llc llc(256, 4, 64);
    llc.access(0, true);   // dirty
    for (std::uint64_t i = 1; i <= 4; ++i) {
        Llc::AccessResult r = llc.access(i * 64, false);
        if (r.writeback) {
            EXPECT_EQ(r.victimAddr, 0u);
        }
    }
    EXPECT_EQ(llc.writebacks(), 1u);
}

TEST(Llc, MissRateForStreamingExceedsCache)
{
    Llc llc(1 << 14, 4, 64);   // 16 KB
    // Stream through 1 MB: everything misses.
    for (Addr a = 0; a < (1 << 20); a += 64)
        llc.access(a, false);
    EXPECT_GT(llc.missRate(), 0.99);
}

TEST(AddressStream, StaysInBounds)
{
    AddressStreamParams sp;
    sp.footprintBytes = 1 << 20;
    AddressStream s(sp, 1 << 24, 9);
    for (int i = 0; i < 10000; ++i) {
        bool st = false;
        Addr a = s.next(st);
        EXPECT_GE(a, Addr(1) << 24);
        EXPECT_LT(a, (Addr(1) << 24) + sp.footprintBytes);
    }
}

TEST(AddressStream, StoreFraction)
{
    AddressStreamParams sp;
    sp.storeFrac = 0.3;
    AddressStream s(sp, 0, 10);
    int stores = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        bool st = false;
        s.next(st);
        if (st)
            ++stores;
    }
    EXPECT_NEAR(static_cast<double>(stores) / n, 0.3, 0.02);
}

TEST(CacheTrace, EmitsMissesWithEmergentRate)
{
    CacheTraceSource::Params cp;
    cp.accessesPerKiloInstr = 200.0;
    cp.llcBytes = 1 << 18;   // 256 KB slice
    AddressStreamParams sp;
    sp.footprintBytes = 16ull << 20;   // much larger than the cache
    sp.seqFrac = 0.5;
    CacheTraceSource src(cp, sp, 0, 11);
    TraceChunk c;
    for (int i = 0; i < 20000; ++i)
        ASSERT_TRUE(src.next(c));
    // Misses must be a plausible fraction of accesses.
    EXPECT_GT(src.observedMpki(), 1.0);
    EXPECT_LT(src.observedMpki(), 200.0);
    EXPECT_GT(src.cache().writebacks(), 0u);
}
