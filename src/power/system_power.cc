#include "power/system_power.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    background += o.background;
    actPre += o.actPre;
    readWrite += o.readWrite;
    termination += o.termination;
    refresh += o.refresh;
    pllReg += o.pllReg;
    mc += o.mc;
    cpu += o.cpu;
    rest += o.rest;
    return *this;
}

EnergyBreakdown
EnergyBreakdown::operator-(const EnergyBreakdown &o) const
{
    EnergyBreakdown r;
    r.background = background - o.background;
    r.actPre = actPre - o.actPre;
    r.readWrite = readWrite - o.readWrite;
    r.termination = termination - o.termination;
    r.refresh = refresh - o.refresh;
    r.pllReg = pllReg - o.pllReg;
    r.mc = mc - o.mc;
    r.cpu = cpu - o.cpu;
    r.rest = rest - o.rest;
    return r;
}

void
EnergyBreakdown::transfer(SectionIO &io)
{
    io(background);
    io(actPre);
    io(readWrite);
    io(termination);
    io(refresh);
    io(pllReg);
    io(mc);
    io(cpu);
    io(rest);
}

void
IntervalActivity::transfer(SectionIO &io)
{
    io(dt);
    io(busMHz);
    io(deviceBusMHz);
    io(ranksPerChannel);
    io(numDimms);
    io.list(ranks, [&io](RankActivity &ra) { ra.transfer(io); });
    io(channelBurst);
    io(channelMHz);
}

void
SystemEnergyIntegrator::transfer(SectionIO &io)
{
    total_.transfer(io);
    io(elapsed_);
}

void
SystemEnergyIntegrator::addInterval(const IntervalActivity &ia)
{
    if (ia.dt == 0)
        return;
    if (ia.ranks.empty() || ia.channelBurst.empty())
        panic("SystemEnergyIntegrator: empty activity sample");
    const double dtSec = tickToSec(ia.dt);
    const std::size_t numChannels = ia.channelBurst.size();
    auto chan_mhz = [&](std::size_t ch) {
        return ia.channelMHz.empty() ? ia.busMHz : ia.channelMHz[ch];
    };

    // DRAM devices, rank by rank (ranks are channel-major).  Devices
    // clock at their channel's frequency, or the Decoupled device
    // frequency when set.
    for (std::size_t r = 0; r < ia.ranks.size(); ++r) {
        std::size_t ch = r / ia.ranksPerChannel;
        std::uint32_t dev_mhz =
            ia.deviceBusMHz ? ia.deviceBusMHz
                            : chan_mhz(ch);
        const TimingParams tp = TimingParams::forBusMHz(dev_mhz);
        Tick own =
            ia.ranks[r].readBurstTime + ia.ranks[r].writeBurstTime;
        Tick chBurst = ia.channelBurst[ch];
        Tick other = chBurst > own ? chBurst - own : 0;
        RankEnergy re = rankEnergy(ia.ranks[r], tp, pp_, other);
        total_.background += re.background;
        total_.actPre += re.actPre;
        total_.readWrite += re.readWrite;
        total_.termination += re.termination;
        total_.refresh += re.refresh;
    }

    // Register/PLL follow their channel's clock; the MC clocks off
    // the fastest channel.  Utilization drives the load terms.
    Tick burstSum = 0;
    std::uint32_t mc_mhz = 0;
    const double dimmsPerChannel =
        static_cast<double>(ia.numDimms) /
        static_cast<double>(numChannels);
    for (std::size_t ch = 0; ch < numChannels; ++ch) {
        burstSum += ia.channelBurst[ch];
        mc_mhz = std::max(mc_mhz, chan_mhz(ch));
        double ch_util = static_cast<double>(ia.channelBurst[ch]) /
                         static_cast<double>(ia.dt);
        ch_util = std::min(ch_util, 1.0);
        total_.pllReg += dimmsPerChannel *
            (pp_.pllPower(chan_mhz(ch)) +
             pp_.registerPower(chan_mhz(ch), ch_util)) * dtSec;
    }
    double util = static_cast<double>(burstSum) /
                  (static_cast<double>(numChannels) *
                   static_cast<double>(ia.dt));
    total_.mc += pp_.mcPower(mc_mhz, util) * dtSec;
    total_.rest += restW_ * dtSec;
    elapsed_ += ia.dt;
}

Watts
SystemEnergyIntegrator::averagePower() const
{
    return elapsed_ ? total_.total() / tickToSec(elapsed_) : 0.0;
}

Watts
SystemEnergyIntegrator::averageMemoryPower() const
{
    return elapsed_ ? total_.memorySubsystem() / tickToSec(elapsed_)
                    : 0.0;
}

Watts
SystemEnergyIntegrator::averageDimmPower() const
{
    return elapsed_ ? total_.dimm() / tickToSec(elapsed_) : 0.0;
}

} // namespace memscale
