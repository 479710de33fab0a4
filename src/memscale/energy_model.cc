#include "memscale/energy_model.hh"

#include <algorithm>

#include "memscale/slack.hh"
#include "power/dram_power.hh"

namespace memscale
{

EnergyPrediction
EnergyModel::predict(const PerfModel &perf, const ProfileData &profile,
                     const PolicyContext &ctx, FreqIndex f,
                     double time_override)
{
    EnergyPrediction out;
    const TimingParams &tp = TimingParams::at(f);
    const std::uint32_t ranks = ctx.mem.totalRanks();
    const std::uint32_t channels = ctx.mem.numChannels;

    // Predicted wall time to repeat the profiled instruction mix.
    double t = time_override > 0.0 ? time_override : perf.meanTime(f);
    // Idle/fully-stalled profiles predict zero work time; fall back to
    // scaling the window itself.
    if (t <= 0.0)
        t = tickToSec(profile.windowLen);
    out.timeSec = t;
    const Tick tTicks = static_cast<Tick>(t * tickPerSec);

    // Build an aggregate rank-activity window for the predicted
    // interval: operation counts carry over from the profile, burst
    // time is re-derived at the candidate burst width, and background
    // state fractions follow the profiled PTC/PTCKEL/ATCKEL mix.
    const McCounters &mc = profile.mc;
    RankActivity agg;
    agg.totalTime = tTicks * ranks;
    double pre_frac = 1.0;
    double pre_pd_frac = 0.0;
    double act_pd_frac = 0.0;
    if (mc.rankTime > 0) {
        pre_frac = static_cast<double>(mc.rankPreTime) /
                   static_cast<double>(mc.rankTime);
        pre_pd_frac = static_cast<double>(mc.rankPrePdTime) /
                      static_cast<double>(mc.rankTime);
        act_pd_frac = static_cast<double>(mc.rankActPdTime) /
                      static_cast<double>(mc.rankTime);
    }
    auto frac_ticks = [&](double frac) {
        return static_cast<Tick>(frac *
                                 static_cast<double>(agg.totalTime));
    };
    agg.prePowerdownTime = frac_ticks(pre_pd_frac);
    agg.preStandbyTime = frac_ticks(pre_frac - pre_pd_frac);
    agg.actPowerdownTime = frac_ticks(act_pd_frac);
    agg.actStandbyTime = agg.totalTime - agg.preStandbyTime -
                         agg.prePowerdownTime - agg.actPowerdownTime;

    agg.actPreCount = mc.pocc;
    const std::uint64_t accesses = mc.rbhc + mc.obmc + mc.cbmc;
    const std::uint64_t reads = mc.reads;
    const std::uint64_t writes = mc.writes;
    // Burst counts: prefer completed read/write splits; fall back to
    // total accesses.
    std::uint64_t rd = reads ? reads : accesses;
    agg.readBursts = rd;
    agg.writeBursts = writes;
    agg.readBurstTime = rd * tp.tBURST;
    agg.writeBurstTime = writes * tp.tBURST;
    agg.refreshes = static_cast<std::uint64_t>(
        static_cast<double>(ranks) * t /
        tickToSec(tp.tREFI));

    // Termination: every burst terminates on the other ranks of its
    // channel.
    const std::uint32_t rpc = ctx.mem.ranksPerChannel();
    Tick other_burst = (agg.readBurstTime + agg.writeBurstTime) *
                       (rpc > 0 ? rpc - 1 : 0);

    RankEnergy re = rankEnergy(agg, tp, ctx.power, other_burst);
    Joules dram = re.total();

    // Channel utilization at the candidate frequency.
    double util = tickToSec(agg.readBurstTime + agg.writeBurstTime) /
                  (static_cast<double>(channels) * t);
    util = std::clamp(util, 0.0, 1.0);

    Joules pllreg = static_cast<double>(ctx.mem.totalDimms()) *
                    (ctx.power.pllPower(tp.busMHz) +
                     ctx.power.registerPower(tp.busMHz, util)) * t;
    Joules mc_e = ctx.power.mcPower(tp.busMHz, util) * t;

    out.memory = dram + pllreg + mc_e;
    out.system = out.memory + ctx.restWatts * t;
    return out;
}

double
EnergyModel::ser(const PerfModel &perf, const ProfileData &profile,
                 const PolicyContext &ctx, FreqIndex f,
                 bool memory_only)
{
    EnergyPrediction cand = predict(perf, profile, ctx, f);
    EnergyPrediction base =
        predict(perf, profile, ctx, nominalFreqIndex);
    double num = memory_only ? cand.memory : cand.system;
    double den = memory_only ? base.memory : base.system;
    if (den <= 0.0)
        return 1.0;
    return num / den;
}

std::vector<GridPoint>
walkCpuMemGrid(const PerfModel &perf, const ProfileData &profile,
               const PolicyContext &ctx, FreqIndex current,
               double current_ghz, const SlackTracker *slack)
{
    auto tpi_at = [&](std::uint32_t i, FreqIndex fm, double g) {
        return perf.tpiCpu(i) * (current_ghz / g) +
               perf.alpha(i) * perf.tpiMem(fm);
    };
    const double epoch_sec = tickToSec(ctx.epochLen);
    std::vector<GridPoint> out;
    for (FreqIndex f = 0; f < numFreqPoints; ++f) {
        const double stretch = switchStretch(f, current, epoch_sec);
        for (double g : cpuGridGHz) {
            bool ok = true;
            double t_sum = 0.0;
            double cpu_energy = 0.0;
            std::uint32_t n_active = 0;
            for (std::uint32_t i = 0; i < profile.cores.size(); ++i) {
                if (!perf.active(i))
                    continue;
                const double tpi_f = tpi_at(i, f, g) * stretch;
                if (slack &&
                    !slack->feasible(
                        i, tpi_f,
                        tpi_at(i, nominalFreqIndex, ctx.cpuGHz),
                        epoch_sec)) {
                    ok = false;
                    break;
                }
                const double t_i =
                    static_cast<double>(perf.instructions(i)) * tpi_f;
                const double busy =
                    tpi_f > 0.0
                        ? perf.tpiCpu(i) * (current_ghz / g) / tpi_f
                        : 0.0;
                cpu_energy += ctx.power.cpuCorePower(g, busy) * t_i;
                t_sum += t_i;
                ++n_active;
            }
            if (!ok || n_active == 0)
                continue;
            GridPoint p;
            p.f = f;
            p.g = g;
            p.tMean = t_sum / static_cast<double>(n_active);
            p.memJ = EnergyModel::predict(perf, profile, ctx, f,
                                          p.tMean).memory;
            const double idle_cores = static_cast<double>(
                profile.cores.size() - n_active);
            cpu_energy +=
                idle_cores * ctx.power.cpuCorePower(g, 0.0) * p.tMean;
            p.totalJ = p.memJ + cpu_energy + ctx.restWatts * p.tMean;
            out.push_back(p);
        }
    }
    return out;
}

} // namespace memscale
