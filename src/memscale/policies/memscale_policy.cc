#include "memscale/policies/memscale_policy.hh"

#include <limits>

#include "memscale/energy_model.hh"
#include "obs/stat_registry.hh"

namespace memscale
{

void
MemScalePolicy::configure(MemoryController &mc, const PolicyContext &ctx)
{
    mc.setFrequency(nominalFreqIndex);
    mc.setPowerdownMode(opts_.pd);
    perf_ = PerfModel(ctx.cpuGHz);
    slack_ = SlackTracker();
    decision_ = PolicyDecision();
}

FreqIndex
MemScalePolicy::selectFrequency(const ProfileData &profile,
                                const PolicyContext &ctx,
                                FreqIndex current)
{
    // A small guard band absorbs the queue-length mispredictions at
    // the highest frequency that the paper reports (its MemEnergy
    // variant overshoots by 0.8% for the same reason).
    slack_.start(profile.cores.size(), ctx.gamma * 0.95);
    perf_.calibrate(profile);

    const double epoch_sec = tickToSec(ctx.epochLen);
    FreqIndex best = nominalFreqIndex;
    double best_energy = std::numeric_limits<double>::infinity();

    for (FreqIndex f = 0; f < numFreqPoints; ++f) {
        const double stretch = switchStretch(f, current, epoch_sec);
        // Feasibility: every core's predicted slowdown must fit its
        // slack-adjusted target.
        bool ok = true;
        for (std::uint32_t c = 0; c < profile.cores.size(); ++c) {
            if (!perf_.active(c))
                continue;
            double tpi_f = perf_.tpi(c, f) * stretch;
            double tpi_max = perf_.tpi(c, nominalFreqIndex);
            if (!slack_.feasible(c, tpi_f, tpi_max, epoch_sec)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;

        EnergyPrediction pred =
            EnergyModel::predict(perf_, profile, ctx, f);
        double metric =
            opts_.memoryEnergyOnly ? pred.memory : pred.system;
        if (metric < best_energy) {
            best_energy = metric;
            best = f;
        }
    }

    // Observability: capture the decision trail.  Every computation
    // below re-derives values from the (already calibrated) models,
    // so the simulation outcome is untouched whether or not anyone
    // reads the record — the goldens pin this.
    decision_.valid = true;
    decision_.chosen = best;
    double cpi_sum = 0.0;
    std::uint32_t active = 0;
    for (std::uint32_t c = 0; c < profile.cores.size(); ++c) {
        if (!perf_.active(c))
            continue;
        cpi_sum += perf_.cpi(c, best);
        ++active;
    }
    decision_.predictedCpi =
        active ? cpi_sum / static_cast<double>(active) : 0.0;
    EnergyPrediction chosen_pred =
        EnergyModel::predict(perf_, profile, ctx, best);
    decision_.predictedMemJ = chosen_pred.memory;
    decision_.predictedSysJ = chosen_pred.system;
    decision_.ser = EnergyModel::ser(perf_, profile, ctx, best,
                                     opts_.memoryEnergyOnly);
    return best;
}

void
MemScalePolicy::endEpoch(const ProfileData &epoch,
                         const PolicyContext &ctx)
{
    slack_.bankEpoch(epoch, ctx.cpuGHz);
    decision_.minSlack = slack_.minSlack();
}

void
MemScalePolicy::registerStats(StatRegistry &reg,
                              const std::string &prefix)
{
    reg.addGauge(prefix + ".minSlack",
                 [this] { return decision_.minSlack; });
    reg.addGauge(prefix + ".ser", [this] { return decision_.ser; });
    reg.addGauge(prefix + ".chosenMHz", [this] {
        return static_cast<double>(
            TimingParams::at(decision_.chosen).busMHz);
    });
    reg.addGauge(prefix + ".gamma",
                 [this] { return slack_.gamma(); });
}

} // namespace memscale
