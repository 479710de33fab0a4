#include "memscale/policies/perchannel_policy.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "power/dram_power.hh"

namespace memscale
{

namespace
{

/** Frequency-invariant per-channel model inputs. */
struct ChannelCal
{
    double xiBank = 1.0;
    double xiBus = 1.0;
    double tDevice = 0.0;
    double share = 0.0;        ///< fraction of system traffic
    double accessRate = 0.0;   ///< accesses/sec over the window
    double actPreRate = 0.0;   ///< act-pre pairs/sec
    double preFrac = 1.0;      ///< all-banks-precharged fraction
};

double
tpiMemChannel(const ChannelCal &cc, FreqIndex f)
{
    const TimingParams &tp = TimingParams::at(f);
    return cc.xiBank * (tickToSec(tp.tMC) + cc.tDevice +
                        cc.xiBus * tickToSec(tp.tBURST));
}

} // namespace

void
PerChannelMemScalePolicy::configure(MemoryController &mc,
                                    const PolicyContext &ctx)
{
    mc.setFrequency(nominalFreqIndex);
    mc.setPowerdownMode(PowerdownMode::None);
    mc_ = &mc;
    perf_ = PerfModel(ctx.cpuGHz);
    slack_ = SlackTracker();
    choices_.assign(ctx.mem.numChannels, nominalFreqIndex);
    chanPrev_.clear();
}

FreqIndex
PerChannelMemScalePolicy::selectFrequency(const ProfileData &profile,
                                          const PolicyContext &ctx,
                                          FreqIndex current)
{
    (void)current;
    if (mc_ == nullptr)
        panic("PerChannelMemScalePolicy used without configure()");
    // Wider guard band than MemScale's: the per-channel windows are
    // staler.
    slack_.start(profile.cores.size(), ctx.gamma * 0.90);
    perf_.calibrate(profile);

    const std::uint32_t channels = ctx.mem.numChannels;
    const double window = tickToSec(profile.windowLen);

    // Per-channel calibration from each channel's own counter block.
    // The policy diffs cumulative counters between its own decision
    // points (approximately one epoch apart).
    std::vector<ChannelCal> cal(channels);
    if (chanPrev_.size() != channels)
        chanPrev_.assign(channels, McCounters{});
    double total_btc = 0.0;
    std::vector<McCounters> deltas(channels);
    for (std::uint32_t c = 0; c < channels; ++c) {
        McCounters cur = mc_->sampleChannelCounters(c);
        deltas[c] = cur - chanPrev_[c];
        chanPrev_[c] = cur;
        total_btc += static_cast<double>(deltas[c].btc);
    }
    const TimingParams &nom = TimingParams::at(nominalFreqIndex);
    for (std::uint32_t c = 0; c < channels; ++c) {
        const McCounters &d = deltas[c];
        ChannelCal &cc = cal[c];
        cc.xiBank = d.xiBank();
        cc.xiBus = d.xiBus();
        double n = static_cast<double>(d.rbhc + d.cbmc + d.obmc);
        if (n > 0.0) {
            cc.tDevice =
                (tickToSec(nom.tCL) * d.rbhc +
                 tickToSec(nom.tRCD + nom.tCL) * d.cbmc +
                 tickToSec(nom.tRP + nom.tRCD + nom.tCL) * d.obmc +
                 tickToSec(nom.tXP) * d.epdc) / n;
        } else {
            cc.tDevice = tickToSec(nom.tRCD + nom.tCL);
        }
        cc.share = total_btc > 0.0
                       ? static_cast<double>(d.btc) / total_btc
                       : 1.0 / channels;
        if (window > 0.0) {
            cc.accessRate =
                static_cast<double>(d.reads + d.writes) / window;
            cc.actPreRate = static_cast<double>(d.pocc) / window;
        }
        cc.preFrac = d.rankTime
                         ? static_cast<double>(d.rankPreTime) /
                               static_cast<double>(d.rankTime)
                         : 1.0;
    }

    // Blended per-core time at a per-channel frequency vector.
    auto tpi_core = [&](std::uint32_t i,
                        const std::vector<FreqIndex> &fv) {
        double mem = 0.0;
        for (std::uint32_t c = 0; c < channels; ++c)
            mem += cal[c].share * tpiMemChannel(cal[c], fv[c]);
        return perf_.tpiCpu(i) + perf_.alpha(i) * mem;
    };
    const std::vector<FreqIndex> all_nominal(channels,
                                             nominalFreqIndex);

    auto feasible = [&](const std::vector<FreqIndex> &fv) {
        const double epoch_sec = tickToSec(ctx.epochLen);
        for (std::uint32_t i = 0; i < profile.cores.size(); ++i) {
            if (!perf_.active(i))
                continue;
            if (!slack_.feasible(i, tpi_core(i, fv),
                                 tpi_core(i, all_nominal),
                                 epoch_sec))
                return false;
        }
        return true;
    };

    // Predicted system power at a frequency vector (per-channel DRAM
    // + register/PLL, MC at the fastest channel, fixed rest).
    const PowerParams &pp = ctx.power;
    const double chips = pp.chipsPerRank;
    const double rpc = ctx.mem.ranksPerChannel();
    const double dimms_per_chan =
        static_cast<double>(ctx.mem.totalDimms()) / channels;
    auto system_power = [&](const std::vector<FreqIndex> &fv) {
        double p = ctx.restWatts;
        std::uint32_t mc_mhz = 0;
        double util_sum = 0.0;
        for (std::uint32_t c = 0; c < channels; ++c) {
            const TimingParams &tp = TimingParams::at(fv[c]);
            mc_mhz = std::max(mc_mhz, tp.busMHz);
            double fs = pp.freqScale(tp.busMHz);
            double bg_cur = cal[c].preFrac * pp.iPreStandby +
                            (1.0 - cal[c].preFrac) * pp.iActStandby;
            p += rpc * chips * pp.vdd * bg_cur * fs;
            // Operation power: act/pre energy rate + burst power.
            double e_actpre = pp.vdd * chips *
                              std::max(0.0, pp.iActPre -
                                                pp.iActStandby) *
                              tickToSec(tp.tRAS + tp.tRP);
            p += cal[c].actPreRate * e_actpre;
            double util = cal[c].accessRate * tickToSec(tp.tBURST);
            util = std::min(util, 1.0);
            p += util * chips * pp.vdd *
                 std::max(0.0, pp.iReadWrite - pp.iActStandby);
            p += dimms_per_chan * (pp.pllPower(tp.busMHz) +
                                   pp.registerPower(tp.busMHz, util));
            util_sum += util;
        }
        p += pp.mcPower(mc_mhz, util_sum / channels);
        return p;
    };
    auto mean_time = [&](const std::vector<FreqIndex> &fv) {
        double sum = 0.0;
        std::uint32_t n = 0;
        for (std::uint32_t i = 0; i < profile.cores.size(); ++i) {
            if (!perf_.active(i))
                continue;
            sum += tpi_core(i, fv);
            ++n;
        }
        return n ? sum / n : 1.0;
    };

    // Phase 1: pick the best feasible *lockstep* assignment.  This
    // seeds the search where plain MemScale would land, so the
    // per-channel refinement can only improve on it (a channel-local
    // move alone cannot unlock the MC's V^2 f savings, which follow
    // the fastest channel).
    std::vector<FreqIndex> fv(channels, nominalFreqIndex);
    {
        double best_metric = std::numeric_limits<double>::infinity();
        FreqIndex best = nominalFreqIndex;
        std::vector<FreqIndex> uniform(channels, nominalFreqIndex);
        for (FreqIndex f = 0; f < numFreqPoints; ++f) {
            std::fill(uniform.begin(), uniform.end(), f);
            if (!feasible(uniform))
                continue;
            double metric = mean_time(uniform) *
                            system_power(uniform);
            if (metric < best_metric) {
                best_metric = metric;
                best = f;
            }
        }
        std::fill(fv.begin(), fv.end(), best);
    }

    // Phase 2: greedy per-channel refinement.
    for (std::uint32_t c = 0; c < channels; ++c) {
        FreqIndex best = nominalFreqIndex;
        double best_metric = std::numeric_limits<double>::infinity();
        for (FreqIndex f = 0; f < numFreqPoints; ++f) {
            fv[c] = f;
            if (!feasible(fv))
                continue;
            double metric = mean_time(fv) * system_power(fv);
            if (metric < best_metric) {
                best_metric = metric;
                best = f;
            }
        }
        fv[c] = best;
    }
    choices_ = fv;
    for (std::uint32_t c = 0; c < channels; ++c)
        mc_->setChannelFrequency(c, fv[c]);
    // The subsystem-level interface reports the MC domain (fastest
    // channel); the epoch controller's setFrequency is then a no-op.
    return mc_->frequency();
}

} // namespace memscale
