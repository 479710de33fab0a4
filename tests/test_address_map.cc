/**
 * @file
 * Address-mapping tests: decode against the defining division
 * formula on both decode paths, decode/encode round-trips (property
 * sweep across configurations including the non-power-of-two
 * 3-channel case), interleaving behaviour, and field ranges.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "mem/address_map.hh"

using namespace memscale;

namespace
{

MemConfig
cfgWithChannels(std::uint32_t channels)
{
    MemConfig cfg;
    cfg.numChannels = channels;
    return cfg;
}

/**
 * The mapping's defining division chain, written out independently of
 * AddressMap so the shift/mask fast path has something to match.
 */
DecodedAddr
divisionDecode(const MemConfig &cfg, Addr addr)
{
    const std::uint64_t col_high_n = cfg.linesPerRow() / cfg.colLowLines;
    std::uint64_t line = (addr % cfg.totalBytes()) / cfg.lineBytes;
    DecodedAddr d;
    d.channel = static_cast<std::uint32_t>(line % cfg.numChannels);
    line /= cfg.numChannels;
    const std::uint64_t col_low = line % cfg.colLowLines;
    line /= cfg.colLowLines;
    d.bank = static_cast<std::uint32_t>(line % cfg.banksPerRank);
    line /= cfg.banksPerRank;
    d.rank = static_cast<std::uint32_t>(line % cfg.ranksPerChannel());
    line /= cfg.ranksPerChannel();
    const std::uint64_t col_high = line % col_high_n;
    line /= col_high_n;
    d.row = line % cfg.rowsPerBank();
    d.column = col_high * cfg.colLowLines + col_low;
    return d;
}

} // namespace

TEST(AddressMap, DecodeMatchesDivisionFormula)
{
    // The default geometry is all powers of two (shift/mask path);
    // 3 channels forces the division chain.  Both must agree with the
    // formula field by field, on line-aligned and unaligned addresses
    // and past the capacity wrap.
    for (std::uint32_t channels : {4u, 3u}) {
        MemConfig cfg = cfgWithChannels(channels);
        AddressMap map(cfg);
        Rng rng(channels * 77 + 5);
        for (int i = 0; i < 20000; ++i) {
            const Addr a = i % 8 == 0 ? rng.next()
                                      : rng.next() % cfg.totalBytes();
            const DecodedAddr got = map.decode(a);
            const DecodedAddr want = divisionDecode(cfg, a);
            ASSERT_EQ(got.channel, want.channel) << channels << " " << a;
            ASSERT_EQ(got.rank, want.rank) << channels << " " << a;
            ASSERT_EQ(got.bank, want.bank) << channels << " " << a;
            ASSERT_EQ(got.row, want.row) << channels << " " << a;
            ASSERT_EQ(got.column, want.column) << channels << " " << a;
        }
    }
}

TEST(AddressMap, FieldRanges)
{
    MemConfig cfg;
    AddressMap map(cfg);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        Addr a = (rng.next() % cfg.totalBytes()) & ~Addr(63);
        DecodedAddr d = map.decode(a);
        EXPECT_LT(d.channel, cfg.numChannels);
        EXPECT_LT(d.rank, cfg.ranksPerChannel());
        EXPECT_LT(d.bank, cfg.banksPerRank);
        EXPECT_LT(d.row, cfg.rowsPerBank());
        EXPECT_LT(d.column, cfg.linesPerRow());
    }
}

TEST(AddressMap, ConsecutiveLinesInterleaveChannels)
{
    MemConfig cfg;
    AddressMap map(cfg);
    for (Addr line = 0; line < 64; ++line) {
        DecodedAddr d = map.decode(line * cfg.lineBytes);
        EXPECT_EQ(d.channel, line % cfg.numChannels);
    }
}

TEST(AddressMap, StreamingTouchesSameRowWithinColLow)
{
    MemConfig cfg;
    AddressMap map(cfg);
    // Lines 0, 4, 8, 12 land on channel 0 with consecutive low column
    // bits in the same row (colLowLines = 4).
    DecodedAddr first = map.decode(0);
    for (Addr i = 1; i < cfg.colLowLines; ++i) {
        DecodedAddr d =
            map.decode(i * cfg.numChannels * cfg.lineBytes);
        EXPECT_EQ(d.channel, first.channel);
        EXPECT_EQ(d.bank, first.bank);
        EXPECT_EQ(d.row, first.row);
        EXPECT_EQ(d.column, first.column + i);
    }
}

class AddressMapRoundTrip
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(AddressMapRoundTrip, DecodeEncodeIdentity)
{
    MemConfig cfg = cfgWithChannels(GetParam());
    AddressMap map(cfg);
    Rng rng(GetParam() * 1234 + 1);
    for (int i = 0; i < 20000; ++i) {
        Addr a = (rng.next() % cfg.totalBytes()) & ~Addr(63);
        DecodedAddr d = map.decode(a);
        EXPECT_EQ(map.encode(d), a);
    }
}

TEST_P(AddressMapRoundTrip, DistinctLinesDistinctLocations)
{
    MemConfig cfg = cfgWithChannels(GetParam());
    AddressMap map(cfg);
    // Dense sweep of the first 4096 lines must produce 4096 distinct
    // decoded locations (verified through the encode round-trip).
    for (Addr line = 0; line < 4096; ++line) {
        Addr a = line * cfg.lineBytes;
        EXPECT_EQ(map.encode(map.decode(a)), a);
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, AddressMapRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(AddressMap, CapacityWraps)
{
    MemConfig cfg;
    AddressMap map(cfg);
    Addr beyond = cfg.totalBytes() + 128;
    DecodedAddr d = map.decode(beyond);
    EXPECT_EQ(map.encode(d), Addr(128));
}

TEST(AddressMap, BadConfigFatal)
{
    MemConfig cfg;
    cfg.colLowLines = 7;   // does not divide 128 lines/row
    EXPECT_THROW(AddressMap m(cfg), FatalError);
}
