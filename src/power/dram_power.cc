#include "power/dram_power.hh"

namespace memscale
{

RankEnergy &
RankEnergy::operator+=(const RankEnergy &o)
{
    background += o.background;
    actPre += o.actPre;
    readWrite += o.readWrite;
    termination += o.termination;
    refresh += o.refresh;
    return *this;
}

RankEnergy
rankEnergy(const RankActivity &act, const TimingParams &tp,
           const PowerParams &pp, Tick other_burst)
{
    RankEnergy e;
    const double chips = pp.chipsPerRank;
    const double vdd = pp.vdd;
    // Background/standby currents derate linearly with interface
    // frequency (Section 2.2); device-internal operation energies do
    // not.
    const double fscale = pp.freqScale(tp.busMHz);

    // Background: four CKE/bank-state combinations.  Slow-exit
    // powerdown time is a subset of prePowerdownTime drawn at the
    // lower DLL-off current.
    const double fastPdTime =
        tickToSec(act.prePowerdownTime - act.slowPowerdownTime -
                  act.selfRefreshTime - act.srSlowClockTime -
                  act.deepPowerdownTime);
    e.background = vdd * chips * fscale *
        (pp.iPreStandby * tickToSec(act.preStandbyTime) +
         pp.iPrePdFast * fastPdTime +
         pp.iPrePdSlow * tickToSec(act.slowPowerdownTime) +
         pp.iActStandby * tickToSec(act.actStandbyTime) +
         pp.iActPowerdown * tickToSec(act.actPowerdownTime)) +
        // The internally-refreshing states draw their own
        // (frequency-independent) currents: the interface clock is
        // decoupled or off, so the bus frequency derating no longer
        // applies.
        vdd * chips *
            (pp.iSelfRefresh * tickToSec(act.selfRefreshTime) +
             pp.iSrSlowClock * tickToSec(act.srSlowClockTime) +
             pp.iDeepPowerdown * tickToSec(act.deepPowerdownTime));

    // Activate/precharge: IDD0-style measurement cycles ACT-PRE at
    // tRC; net charge above standby is (IDD0 - weighted standby)
    // over tRC = tRAS + tRP.  Standby time is already counted in
    // background, so only the net is added here.
    const double tRC = tickToSec(tp.tRAS + tp.tRP);
    double iNet = pp.iActPre -
        (pp.iActStandby * tickToSec(tp.tRAS) +
         pp.iPreStandby * tickToSec(tp.tRP)) / tRC;
    if (iNet < 0)
        iNet = 0;
    e.actPre = vdd * chips * iNet * tRC *
               static_cast<double>(act.actPreCount);

    // Read/write: burst current above standby while the rank drives
    // or receives data.  Power is frequency-independent; lower
    // frequencies stretch burst time and thus energy.
    const double burstSec =
        tickToSec(act.readBurstTime + act.writeBurstTime);
    double iBurstNet = pp.iReadWrite - pp.iActStandby;
    if (iBurstNet < 0)
        iBurstNet = 0;
    e.readWrite = vdd * chips * iBurstNet * burstSec;

    // Termination: ODT dissipation on this rank while other ranks on
    // the channel burst, plus self-termination of incoming writes.
    e.termination = chips *
        (pp.termOtherRankW * tickToSec(other_burst) +
         pp.termSelfWriteW * tickToSec(act.writeBurstTime));

    // Refresh: net current above precharge standby for tRFC per
    // refresh command.
    double iRefNet = pp.iRefresh - pp.iPreStandby;
    if (iRefNet < 0)
        iRefNet = 0;
    e.refresh = vdd * chips * iRefNet * tickToSec(tp.tRFC) *
                static_cast<double>(act.refreshes);

    return e;
}

} // namespace memscale
