#include "memscale/policies/slo_policy.hh"

#include "dram/timing.hh"
#include "mem/controller.hh"
#include "obs/stat_registry.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

void
SloPolicy::configure(MemoryController &mc, const PolicyContext &ctx)
{
    mc.setFrequency(nominalFreqIndex);
    mc.setPowerdownMode(PowerdownMode::None);
    perf_ = PerfModel(ctx.cpuGHz);
    decision_ = PolicyDecision();
    lastP99Us_ = 0.0;
    overloadEpochs_ = 0;
    idleEpochs_ = 0;
}

FreqIndex
SloPolicy::selectFrequency(const ProfileData &profile,
                           const PolicyContext &ctx, FreqIndex current)
{
    // No probe (closed-loop harness paths) or no target: hold.
    if (!probe_ || ctx.sloP99Us <= 0.0)
        return current;

    const TailWindow w = probe_();
    if (w.completions == 0) {
        // Nothing finished this window — either the system is idle or
        // everything in flight is stuck behind a backlog.  A standing
        // queue with zero completions is the worst overload signal
        // there is; plain idleness holds the current point.
        ++idleEpochs_;
        return w.queued > 0 ? nominalFreqIndex : current;
    }
    lastP99Us_ = w.p99Us;

    const double target = ctx.sloP99Us;

    // Overload degradation: the measured tail is already over target,
    // or requests are piling up faster than they drain.  Running any
    // slower only compounds the backlog, so go straight to nominal.
    if (w.p99Us > target || w.queued > w.completions) {
        ++overloadEpochs_;
        decision_.valid = true;
        decision_.chosen = nominalFreqIndex;
        return nominalFreqIndex;
    }

    perf_.calibrate(profile);
    const double t_cur = perf_.meanTime(current);

    // Lowest frequency whose predicted p99 still clears the target
    // with headroom.  The prediction scales the measured window p99
    // by the mean service-time ratio between candidate and current —
    // exact for the service-time component, optimistic for queueing
    // delay, which is what the headroom pays for.
    FreqIndex chosen = nominalFreqIndex;
    if (t_cur > 0.0) {
        for (FreqIndex f = numFreqPoints; f-- > 0;) {
            const double scale = perf_.meanTime(f) / t_cur;
            if (w.p99Us * scale <= target * opts_.headroom) {
                chosen = f;
                break;
            }
        }
    } else {
        chosen = current;
    }

    decision_.valid = true;
    decision_.chosen = chosen;
    if (t_cur > 0.0) {
        decision_.predictedCpi = w.p99Us *
                                 perf_.meanTime(chosen) / t_cur;
        EnergyPrediction pred =
            EnergyModel::predict(perf_, profile, ctx, chosen);
        decision_.predictedMemJ = pred.memory;
        decision_.predictedSysJ = pred.system;
        decision_.ser =
            EnergyModel::ser(perf_, profile, ctx, chosen);
    }
    return chosen;
}

void
SloPolicy::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addGauge(prefix + ".lastP99Us", &lastP99Us_);
    reg.addCounter(prefix + ".overloadEpochs", &overloadEpochs_);
    reg.addCounter(prefix + ".idleEpochs", &idleEpochs_);
    reg.addGauge(prefix + ".chosenMHz", [this] {
        return static_cast<double>(
            TimingParams::at(decision_.chosen).busMHz);
    });
}

void
SloPolicy::transfer(SectionIO &io)
{
    io(lastP99Us_);
    io(overloadEpochs_);
    io(idleEpochs_);
    io(decision_.valid);
    io(decision_.chosen);
    io(decision_.predictedCpi);
    io(decision_.predictedMemJ);
    io(decision_.predictedSysJ);
    io(decision_.ser);
    if (io.loading() && decision_.chosen >= numFreqPoints)
        io.fail("chosen frequency index %u out of range",
                decision_.chosen);
}

} // namespace memscale
