#include "power/params.hh"

#include <algorithm>

#include "snapshot/serializer.hh"

namespace memscale
{

double
PowerParams::mcVoltage(std::uint32_t bus_mhz) const
{
    // Voltage tracks frequency linearly across the usable grid.
    double span = static_cast<double>(nominalBusMHz - minBusMHz);
    double t = (static_cast<double>(bus_mhz) -
                static_cast<double>(minBusMHz)) / span;
    t = std::clamp(t, 0.0, 1.0);
    return mcVMin + t * (mcVMax - mcVMin);
}

Watts
PowerParams::mcPower(std::uint32_t bus_mhz, double utilization) const
{
    utilization = std::clamp(utilization, 0.0, 1.0);
    double idle = proportionality * mcPeakW;
    double base = idle + (mcPeakW - idle) * utilization;
    double v = mcVoltage(bus_mhz) / mcVMax;
    double f = static_cast<double>(bus_mhz) /
               static_cast<double>(nominalBusMHz);
    return base * v * v * f;
}

Watts
PowerParams::registerPower(std::uint32_t bus_mhz,
                           double utilization) const
{
    utilization = std::clamp(utilization, 0.0, 1.0);
    double idle = proportionality * regPeakW;
    double base = idle + (regPeakW - idle) * utilization;
    return base * freqScale(bus_mhz);
}

Watts
PowerParams::pllPower(std::uint32_t bus_mhz) const
{
    return pllW * freqScale(bus_mhz);
}

double
PowerParams::cpuVoltage(double ghz) const
{
    double t = (ghz - cpuMinGHz) / (cpuNominalGHz - cpuMinGHz);
    t = std::clamp(t, 0.0, 1.0);
    return cpuVMin + t * (cpuVMax - cpuVMin);
}

Watts
PowerParams::cpuCorePower(double ghz, double utilization) const
{
    utilization = std::clamp(utilization, 0.0, 1.0);
    double v = cpuVoltage(ghz) / cpuVMax;
    double f = ghz / cpuNominalGHz;
    double dyn = (1.0 - cpuStaticFrac) * cpuCorePeakW * v * v * f *
                 utilization;
    double stat = cpuStaticFrac * cpuCorePeakW * v;
    return dyn + stat;
}

void
PowerParams::fingerprint(SectionIO &io)
{
    io.expect("power.vdd", vdd);
    io.expect("power.iReadWrite", iReadWrite);
    io.expect("power.iActPre", iActPre);
    io.expect("power.iActStandby", iActStandby);
    io.expect("power.iActPowerdown", iActPowerdown);
    io.expect("power.iPreStandby", iPreStandby);
    io.expect("power.iPrePdFast", iPrePdFast);
    io.expect("power.iPrePdSlow", iPrePdSlow);
    io.expect("power.iSelfRefresh", iSelfRefresh);
    io.expect("power.iSrSlowClock", iSrSlowClock);
    io.expect("power.iDeepPowerdown", iDeepPowerdown);
    io.expect("power.iRefresh", iRefresh);
    io.expect("power.termOtherRankW", termOtherRankW);
    io.expect("power.termSelfWriteW", termSelfWriteW);
    io.expect("power.pllW", pllW);
    io.expect("power.regPeakW", regPeakW);
    io.expect("power.mcPeakW", mcPeakW);
    io.expect("power.mcVMin", mcVMin);
    io.expect("power.mcVMax", mcVMax);
    io.expect("power.proportionality", proportionality);
    io.expect("power.cpuCorePeakW", cpuCorePeakW);
    io.expect("power.cpuStaticFrac", cpuStaticFrac);
    io.expect("power.cpuVMin", cpuVMin);
    io.expect("power.cpuVMax", cpuVMax);
    io.expect("power.cpuNominalGHz", cpuNominalGHz);
    io.expect("power.cpuMinGHz", cpuMinGHz);
    io.expect("power.chipsPerRank", chipsPerRank);
    io.expect("power.nominalBusMHz", nominalBusMHz);
    io.expect("power.minBusMHz", minBusMHz);
}

} // namespace memscale
