#include "mem/counters.hh"

#include "snapshot/serializer.hh"

namespace memscale
{

void
McCounters::transfer(SectionIO &io)
{
    io(bto);
    io(btc);
    io(cto);
    io(ctc);
    io(rbhc);
    io(obmc);
    io(cbmc);
    io(epdc);
    io(pocc);
    io(rankTime);
    io(rankPreTime);
    io(rankPrePdTime);
    io(rankActPdTime);
    io(rankSrTime);
    io(rankSrSlowTime);
    io(rankDeepPdTime);
    io(pdDemotions);
    io(migrations);
    io(reads);
    io(writes);
    io(busBusyTime);
    io(readLatencyTotal);
    io(freqTransitions);
    io(relockStallTime);
}

McCounters
McCounters::operator-(const McCounters &o) const
{
    McCounters r;
    r.bto = bto - o.bto;
    r.btc = btc - o.btc;
    r.cto = cto - o.cto;
    r.ctc = ctc - o.ctc;
    r.rbhc = rbhc - o.rbhc;
    r.obmc = obmc - o.obmc;
    r.cbmc = cbmc - o.cbmc;
    r.epdc = epdc - o.epdc;
    r.pocc = pocc - o.pocc;
    r.rankTime = rankTime - o.rankTime;
    r.rankPreTime = rankPreTime - o.rankPreTime;
    r.rankPrePdTime = rankPrePdTime - o.rankPrePdTime;
    r.rankActPdTime = rankActPdTime - o.rankActPdTime;
    r.rankSrTime = rankSrTime - o.rankSrTime;
    r.rankSrSlowTime = rankSrSlowTime - o.rankSrSlowTime;
    r.rankDeepPdTime = rankDeepPdTime - o.rankDeepPdTime;
    r.pdDemotions = pdDemotions - o.pdDemotions;
    r.migrations = migrations - o.migrations;
    r.reads = reads - o.reads;
    r.writes = writes - o.writes;
    r.busBusyTime = busBusyTime - o.busBusyTime;
    r.readLatencyTotal = readLatencyTotal - o.readLatencyTotal;
    r.freqTransitions = freqTransitions - o.freqTransitions;
    r.relockStallTime = relockStallTime - o.relockStallTime;
    return r;
}

double
McCounters::xiBank() const
{
    if (btc == 0)
        return 1.0;
    return 1.0 + static_cast<double>(bto) / static_cast<double>(btc);
}

double
McCounters::xiBus() const
{
    if (ctc == 0)
        return 1.0;
    return 1.0 + cto / static_cast<double>(ctc);
}

double
McCounters::rowHitFraction() const
{
    std::uint64_t serviced = rbhc + obmc + cbmc;
    if (serviced == 0)
        return 0.0;
    return static_cast<double>(rbhc) / static_cast<double>(serviced);
}

} // namespace memscale
