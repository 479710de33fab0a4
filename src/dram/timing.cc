#include "dram/timing.hh"

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

namespace
{

// Device-internal parameters in nanoseconds (Table 2; cycle-specified
// entries converted at the 800 MHz reference clock, 1.25 ns/cycle).
constexpr double tRCD_ns = 15.0;
constexpr double tRP_ns = 15.0;
constexpr double tCL_ns = 15.0;
constexpr double tRAS_ns = 28 * 1.25;   // 35 ns
constexpr double tRTP_ns = 5 * 1.25;    // 6.25 ns
constexpr double tRRD_ns = 4 * 1.25;    // 5 ns
constexpr double tFAW_ns = 20 * 1.25;   // 25 ns
constexpr double tWR_ns = 15.0;
constexpr double tWTR_ns = 7.5;
constexpr double tXP_ns = 6.0;
constexpr double tXPDLL_ns = 24.0;
constexpr double tRFC_ns = 110.0;       // 1 Gb x8 device
constexpr double tREFI_ns = 64.0e6 / 8192.0;  // 7812.5 ns
constexpr double relockSettle_ns = 28.0;
constexpr std::uint32_t relockCycles = 512;   // JEDEC tDLLK

TimingParams
build(std::uint32_t mhz)
{
    if (mhz == 0)
        fatal("TimingParams: zero bus frequency");
    TimingParams tp;
    tp.busMHz = mhz;
    tp.tCK = periodFromMHz(mhz);
    tp.tCKMC = periodFromMHz(2.0 * mhz);
    tp.tBURST = 4 * tp.tCK;
    tp.tMC = 5 * tp.tCKMC;
    tp.tRCD = nsToTick(tRCD_ns);
    tp.tRP = nsToTick(tRP_ns);
    tp.tCL = nsToTick(tCL_ns);
    tp.tRAS = nsToTick(tRAS_ns);
    tp.tRTP = nsToTick(tRTP_ns);
    tp.tRRD = nsToTick(tRRD_ns);
    tp.tFAW = nsToTick(tFAW_ns);
    tp.tWR = nsToTick(tWR_ns);
    tp.tWTR = nsToTick(tWTR_ns);
    tp.tXP = nsToTick(tXP_ns);
    tp.tXPDLL = nsToTick(tXPDLL_ns);
    tp.tRFC = nsToTick(tRFC_ns);
    tp.tXS = nsToTick(tRFC_ns + 10.0);
    tp.tREFI = nsToTick(tREFI_ns);
    tp.tXSDLL = relockCycles * tp.tCK + nsToTick(10.0);
    tp.tXDP = tp.tXSDLL + nsToTick(tRFC_ns);
    tp.tRELOCK = relockCycles * tp.tCK + nsToTick(relockSettle_ns);
    return tp;
}

struct GridTable
{
    std::array<TimingParams, numFreqPoints> entries;

    GridTable()
    {
        for (FreqIndex i = 0; i < numFreqPoints; ++i)
            entries[i] = build(busFreqGridMHz[i]);
    }
};

const GridTable &
grid()
{
    static const GridTable table;
    return table;
}

} // namespace

const TimingParams &
TimingParams::at(FreqIndex idx)
{
    if (idx >= numFreqPoints)
        panic("TimingParams: frequency index %u out of range", idx);
    return grid().entries[idx];
}

TimingParams
TimingParams::forBusMHz(std::uint32_t mhz)
{
    return build(mhz);
}

void
TimingParams::transfer(SectionIO &io)
{
    io(busMHz);
    io(tCK);
    io(tCKMC);
    io(tBURST);
    io(tMC);
    io(tRCD);
    io(tRP);
    io(tCL);
    io(tRAS);
    io(tRTP);
    io(tRRD);
    io(tFAW);
    io(tWR);
    io(tWTR);
    io(tXP);
    io(tXPDLL);
    io(tRFC);
    io(tXS);
    io(tREFI);
    io(tRELOCK);
    io(tXSDLL);
    io(tXDP);
}

FreqIndex
freqIndexForMHz(std::uint32_t mhz)
{
    for (FreqIndex i = 0; i < numFreqPoints; ++i) {
        if (busFreqGridMHz[i] <= mhz)
            return i;
    }
    return numFreqPoints - 1;
}

} // namespace memscale
