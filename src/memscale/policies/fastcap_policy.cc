#include "memscale/policies/fastcap_policy.hh"

#include "memscale/energy_model.hh"
#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

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

    // Same grid walk as CoScale, without the slack cut: only the
    // objective differs.
    const double g_nom = ctx.cpuGHz;
    const Watts budget = ctx.powerCapW;

    struct Candidate
    {
        bool valid = false;
        GridPoint p;
        Watts watts = 0.0;
    };
    Candidate perf_best;   // fastest pair, ignoring the budget
    Candidate min_power;   // slowest knob: the power floor
    Candidate feasible;    // fastest pair fitting the budget
    Candidate nominal;     // (f_nom, g_nom): the uncapped demand

    for (const GridPoint &p :
         walkCpuMemGrid(perf_, profile, ctx, current, currentGHz_)) {
        if (!(p.tMean > 0.0))
            continue;
        const Candidate c{true, p, p.totalJ / p.tMean};
        if (!perf_best.valid || c.p.tMean < perf_best.p.tMean ||
            (c.p.tMean == perf_best.p.tMean &&
             c.watts < perf_best.watts))
            perf_best = c;
        if (!min_power.valid || c.watts < min_power.watts ||
            (c.watts == min_power.watts &&
             c.p.tMean < min_power.p.tMean))
            min_power = c;
        if (budget > 0.0 && c.watts <= opts_.headroom * budget &&
            (!feasible.valid || c.p.tMean < feasible.p.tMean ||
             (c.p.tMean == feasible.p.tMean &&
              c.watts < feasible.watts)))
            feasible = c;
        if (p.f == nominalFreqIndex && p.g == g_nom)
            nominal = c;
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

    chosenGHz_ = chosen.p.g;
    currentGHz_ = chosen.p.g;

    const Candidate &demand = nominal.valid ? nominal : perf_best;
    tele_.valid = true;
    tele_.demandW = demand.watts;
    tele_.minW = min_power.watts;
    tele_.chosenW = chosen.watts;
    tele_.slowdown = perf_best.p.tMean > 0.0
                         ? chosen.p.tMean / perf_best.p.tMean
                         : 1.0;
    tele_.budgetW = budget;
    ++tele_.epochs;
    if (infeasible)
        ++tele_.infeasibleEpochs;
    if (chosen.watts > tele_.maxChosenW)
        tele_.maxChosenW = chosen.watts;

    decision_.valid = true;
    decision_.chosen = chosen.p.f;
    decision_.predictedCpi = 0.0;
    decision_.predictedMemJ = chosen.p.memJ;
    decision_.predictedSysJ = chosen.p.totalJ;
    decision_.ser = demand.p.totalJ > 0.0
                        ? chosen.p.totalJ / demand.p.totalJ
                        : 1.0;
    decision_.minSlack = 0.0;

    return chosen.p.f;
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
