#include "memscale/policies/coscale_policy.hh"

#include <limits>

#include "memscale/energy_model.hh"

namespace memscale
{

void
CoScalePolicy::configure(MemoryController &mc, const PolicyContext &ctx)
{
    mc.setFrequency(nominalFreqIndex);
    mc.setPowerdownMode(PowerdownMode::None);
    perf_ = PerfModel(ctx.cpuGHz);
    slack_ = SlackTracker();
    currentGHz_ = ctx.cpuGHz;
    chosenGHz_ = ctx.cpuGHz;
}

FreqIndex
CoScalePolicy::selectFrequency(const ProfileData &profile,
                               const PolicyContext &ctx,
                               FreqIndex current)
{
    slack_.start(profile.cores.size(), ctx.gamma * 0.95);
    perf_.calibrate(profile);
    if (currentGHz_ <= 0.0)
        currentGHz_ = ctx.cpuGHz;

    // The slack-feasible pair of least predicted full-system energy;
    // the first pair in grid order wins a tie.
    FreqIndex best_f = nominalFreqIndex;
    double best_g = ctx.cpuGHz;
    double best_energy = std::numeric_limits<double>::infinity();
    for (const GridPoint &p : walkCpuMemGrid(perf_, profile, ctx, current,
                                             currentGHz_, &slack_)) {
        if (p.totalJ < best_energy) {
            best_energy = p.totalJ;
            best_f = p.f;
            best_g = p.g;
        }
    }

    chosenGHz_ = best_g;
    currentGHz_ = best_g;
    return best_f;
}

void
CoScalePolicy::endEpoch(const ProfileData &epoch,
                        const PolicyContext &ctx)
{
    // Work-equivalent time at nominal CPU *and* memory clocks: the
    // measured CPU share shrinks by current/nominal.
    slack_.bankEpoch(epoch, ctx.cpuGHz,
                     currentGHz_ > 0.0 ? currentGHz_ / ctx.cpuGHz
                                       : 1.0);
}

} // namespace memscale
