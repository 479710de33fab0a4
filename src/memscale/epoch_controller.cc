#include "memscale/epoch_controller.hh"

#include "common/log.hh"
#include "sim/event_kinds.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

EpochController::EpochController(
    EventQueue &eq, MemoryController &mc,
    const std::vector<CpuSampler *> &cores, Policy &policy,
    const PolicyContext &ctx)
    : eq_(eq), mc_(mc), cores_(cores), policy_(policy), ctx_(ctx)
{
}

EpochController::Snapshot
EpochController::takeSnapshot()
{
    Snapshot s;
    s.mc = mc_.sampleCounters();
    s.at = eq_.now();
    s.freq = mc_.frequency();
    s.cores.reserve(cores_.size());
    for (CpuSampler *c : cores_)
        s.cores.push_back(CoreSample{c->tic(s.at), c->tlm()});
    return s;
}

ProfileData
EpochController::delta(const Snapshot &s0, const Snapshot &s1)
{
    ProfileData d;
    d.mc = s1.mc - s0.mc;
    d.windowLen = s1.at - s0.at;
    d.freqDuring = s1.freq;
    d.cores.reserve(s0.cores.size());
    for (std::size_t i = 0; i < s0.cores.size(); ++i) {
        d.cores.push_back(CoreSample{
            s1.cores[i].tic - s0.cores[i].tic,
            s1.cores[i].tlm - s0.cores[i].tlm});
    }
    return d;
}

void
EpochController::start()
{
    beginEpoch();
}

void
EpochController::beginEpoch()
{
    epochStart_ = takeSnapshot();
    epochStartTick_ = eq_.now();
    eq_.scheduleIn(ctx_.profileLen, [this] { endProfile(); },
                   EventClass::Policy, {EvEpochEndProfile});
}

void
EpochController::endProfile()
{
    Snapshot now = takeSnapshot();
    ProfileData profile = delta(epochStart_, now);
    FreqIndex chosen =
        policy_.selectFrequency(profile, ctx_, mc_.frequency());
    if (chosen != mc_.frequency())
        mc_.setFrequency(chosen);

    // Coordinated policies also re-clock the cores.
    double ghz = policy_.selectedCpuGHz();
    if (ghz > 0.0 && !cores_.empty() &&
        cores_[0]->frequencyGHz() != ghz) {
        if (beforeCpuFreqChange_)
            beforeCpuFreqChange_();
        for (CpuSampler *c : cores_)
            c->setFrequencyGHz(ghz);
    }

    Tick epoch_end = epochStartTick_ + ctx_.epochLen;
    if (epoch_end <= eq_.now())
        epoch_end = eq_.now() + 1;
    eq_.schedule(epoch_end, [this] { endEpoch(); },
                 EventClass::Policy, {EvEpochEndEpoch});
}

void
EpochController::endEpoch()
{
    Snapshot now = takeSnapshot();
    ProfileData epoch = delta(epochStart_, now);
    policy_.endEpoch(epoch, ctx_);

    EpochRecord rec;
    rec.start = epochStartTick_;
    rec.end = now.at;
    rec.busMHz = mc_.busMHz();
    rec.cpuGHz =
        cores_.empty() ? ctx_.cpuGHz : cores_[0]->frequencyGHz();
    rec.coreCpi.reserve(epoch.cores.size());
    const double cycles = tickToSec(epoch.windowLen) *
                          ctx_.cpuGHz * 1e9;
    for (const CoreSample &cs : epoch.cores) {
        rec.coreCpi.push_back(
            cs.tic > 0 ? cycles / static_cast<double>(cs.tic) : 0.0);
    }
    rec.channelUtil =
        static_cast<double>(epoch.mc.busBusyTime) /
        (static_cast<double>(mc_.config().numChannels) *
         static_cast<double>(epoch.windowLen));
    history_.push_back(std::move(rec));

    if (recorder_)
        recorder_->record(history_.back(), policy_.lastDecision());

    beginEpoch();
}

void
EpochController::transfer(SectionIO &io)
{
    epochStart_.mc.transfer(io);
    io.list(epochStart_.cores, [&io](CoreSample &cs) {
        io(cs.tic);
        io(cs.tlm);
    });
    io(epochStart_.at);
    io(epochStart_.freq);
    io(epochStartTick_);
    io.list(history_, [&io](EpochRecord &rec) {
        io(rec.start);
        io(rec.end);
        io(rec.busMHz);
        io(rec.cpuGHz);
        io(rec.coreCpi);
        io(rec.channelUtil);
    });
    // The next profile is taken as a difference against epochStart_.
    if (io.loading() && epochStart_.cores.size() != cores_.size())
        io.fail("epoch start samples %zu cores of %zu",
                epochStart_.cores.size(), cores_.size());
    if (io.loading() && epochStart_.freq >= numFreqPoints)
        io.fail("epoch start frequency index %u out of range",
                epochStart_.freq);
}

EventCallback
EpochController::rebuildEvent(std::uint32_t kind)
{
    switch (kind) {
      case EvEpochEndProfile:
        return [this] { endProfile(); };
      case EvEpochEndEpoch:
        return [this] { endEpoch(); };
      default:
        panic("EpochController: cannot rebuild event kind %u (%s)",
              kind, eventKindName(kind));
    }
}

} // namespace memscale
