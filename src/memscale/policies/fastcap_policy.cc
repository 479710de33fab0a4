#include "memscale/policies/fastcap_policy.hh"

#include <limits>

#include "memscale/energy_model.hh"
#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

constexpr std::array<double, 7> FastCapPolicy::cpuGridGHz;

void
FastCapPolicy::configure(MemoryController &mc,
                         const PolicyContext &ctx)
{
    mc.setFrequency(nominalFreqIndex);
    mc.setPowerdownMode(PowerdownMode::None);
    perf_ = PerfModel(ctx.cpuGHz);
    currentGHz_ = ctx.cpuGHz;
    chosenGHz_ = ctx.cpuGHz;
}

FreqIndex
FastCapPolicy::selectFrequency(const ProfileData &profile,
                               const PolicyContext &ctx,
                               FreqIndex current)
{
    perf_.calibrate(profile);
    if (currentGHz_ <= 0.0)
        currentGHz_ = ctx.cpuGHz;

    // The profiling window ran at currentGHz_; a candidate clock g
    // stretches the CPU share by (currentGHz_ / g).  Same performance
    // model as CoScale — only the objective differs.
    const double g_nom = ctx.cpuGHz;
    auto tpi_at = [&](std::uint32_t i, FreqIndex fm, double g) {
        return perf_.tpiCpu(i) * (currentGHz_ / g) +
               perf_.alpha(i) * perf_.tpiMem(fm);
    };

    const double epoch_sec = tickToSec(ctx.epochLen);
    const Watts budget = ctx.powerCapW;

    struct Candidate
    {
        bool valid = false;
        FreqIndex f = nominalFreqIndex;
        double g = 0.0;
        double tMean = 0.0;
        Watts watts = 0.0;
        Joules memJ = 0.0;
        Joules totalJ = 0.0;
    };
    Candidate perf_best;   // fastest pair, ignoring the budget
    Candidate min_power;   // slowest knob: the power floor
    Candidate feasible;    // fastest pair fitting the budget
    Candidate nominal;     // (f_nom, g_nom): the uncapped demand

    for (FreqIndex f = 0; f < numFreqPoints; ++f) {
        double switch_stretch = 1.0;
        if (f != current) {
            switch_stretch +=
                tickToSec(TimingParams::at(f).tRELOCK) / epoch_sec;
        }
        for (double g : cpuGridGHz) {
            double t_sum = 0.0;
            double cpu_energy = 0.0;
            std::uint32_t n_active = 0;
            for (std::uint32_t i = 0; i < profile.cores.size();
                 ++i) {
                if (!perf_.active(i))
                    continue;
                const double tpi_f = tpi_at(i, f, g) * switch_stretch;
                const double t_i =
                    static_cast<double>(perf_.instructions(i)) *
                    tpi_f;
                const double busy =
                    tpi_f > 0.0
                        ? perf_.tpiCpu(i) * (currentGHz_ / g) / tpi_f
                        : 0.0;
                cpu_energy += ctx.power.cpuCorePower(g, busy) * t_i;
                t_sum += t_i;
                ++n_active;
            }
            if (n_active == 0)
                continue;
            const double t_mean =
                t_sum / static_cast<double>(n_active);
            if (!(t_mean > 0.0))
                continue;

            EnergyPrediction mem = EnergyModel::predict(
                perf_, profile, ctx, f, t_mean);
            const double idle_cores = static_cast<double>(
                profile.cores.size() - n_active);
            cpu_energy +=
                idle_cores * ctx.power.cpuCorePower(g, 0.0) * t_mean;
            const double total =
                mem.memory + cpu_energy + ctx.restWatts * t_mean;
            const Watts watts = total / t_mean;

            Candidate c;
            c.valid = true;
            c.f = f;
            c.g = g;
            c.tMean = t_mean;
            c.watts = watts;
            c.memJ = mem.memory;
            c.totalJ = total;

            if (!perf_best.valid || c.tMean < perf_best.tMean ||
                (c.tMean == perf_best.tMean &&
                 c.watts < perf_best.watts))
                perf_best = c;
            if (!min_power.valid || c.watts < min_power.watts ||
                (c.watts == min_power.watts &&
                 c.tMean < min_power.tMean))
                min_power = c;
            if (budget > 0.0 &&
                c.watts <= opts_.headroom * budget &&
                (!feasible.valid || c.tMean < feasible.tMean ||
                 (c.tMean == feasible.tMean &&
                  c.watts < feasible.watts)))
                feasible = c;
            if (f == nominalFreqIndex && g == g_nom)
                nominal = c;
        }
    }

    if (!perf_best.valid) {
        // Wholly idle profile window: nothing to reason about, hold
        // the current operating point.
        return current;
    }

    Candidate chosen;
    bool infeasible = false;
    if (budget <= 0.0) {
        chosen = perf_best;
    } else if (feasible.valid) {
        chosen = feasible;
    } else {
        chosen = min_power;
        infeasible = true;
    }

    chosenGHz_ = chosen.g;
    currentGHz_ = chosen.g;

    const Candidate &demand = nominal.valid ? nominal : perf_best;
    tele_.valid = true;
    tele_.demandW = demand.watts;
    tele_.minW = min_power.watts;
    tele_.chosenW = chosen.watts;
    tele_.slowdown = perf_best.tMean > 0.0
                         ? chosen.tMean / perf_best.tMean
                         : 1.0;
    tele_.budgetW = budget;
    ++tele_.epochs;
    if (infeasible)
        ++tele_.infeasibleEpochs;
    if (chosen.watts > tele_.maxChosenW)
        tele_.maxChosenW = chosen.watts;

    decision_.valid = true;
    decision_.chosen = chosen.f;
    decision_.predictedCpi = 0.0;
    decision_.predictedMemJ = chosen.memJ;
    decision_.predictedSysJ = chosen.totalJ;
    decision_.ser =
        demand.totalJ > 0.0 ? chosen.totalJ / demand.totalJ : 1.0;
    decision_.minSlack = 0.0;

    return chosen.f;
}

void
FastCapPolicy::registerStats(StatRegistry &reg,
                             const std::string &prefix)
{
    reg.addGauge(prefix + ".budgetW",
                 [this] { return tele_.budgetW; });
    reg.addGauge(prefix + ".demandW",
                 [this] { return tele_.demandW; });
    reg.addGauge(prefix + ".chosenW",
                 [this] { return tele_.chosenW; });
    reg.addGauge(prefix + ".slowdown",
                 [this] { return tele_.slowdown; });
    reg.addGauge(prefix + ".infeasibleEpochs", [this] {
        return static_cast<double>(tele_.infeasibleEpochs);
    });
}

void
FastCapPolicy::saveState(SectionWriter &w) const
{
    SectionIO io(w);
    const_cast<FastCapPolicy &>(*this).transfer(io);
}

void
FastCapPolicy::restoreState(SectionReader &r)
{
    SectionIO io(r);
    transfer(io);
}

void
FastCapPolicy::transfer(SectionIO &io)
{
    io(chosenGHz_);
    io(currentGHz_);
    io(tele_.valid);
    io(tele_.demandW);
    io(tele_.minW);
    io(tele_.chosenW);
    io(tele_.slowdown);
    io(tele_.budgetW);
    io(tele_.epochs);
    io(tele_.infeasibleEpochs);
    io(tele_.maxChosenW);
    io(decision_.valid);
    io(decision_.chosen);
    io(decision_.predictedMemJ);
    io(decision_.predictedSysJ);
    io(decision_.ser);
    if (io.loading() && decision_.chosen >= numFreqPoints)
        io.fail("chosen frequency index %u out of range",
                decision_.chosen);
}

} // namespace memscale
