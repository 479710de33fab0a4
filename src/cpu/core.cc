#include "cpu/core.hh"

#include <cmath>

#include "common/log.hh"
#include "sim/event_kinds.hh"

namespace memscale
{

Core::Core(EventQueue &eq, CoreId id, TraceSource &source,
           MemoryController &mc, const CoreParams &params)
    : eq_(eq), id_(id), source_(source), mc_(mc), params_(params),
      cpuPeriod_(periodFromMHz(params.cpuGHz * 1000.0)),
      nominalPeriod_(cpuPeriod_), ghz_(params.cpuGHz)
{
}

void
Core::setFrequencyGHz(double ghz)
{
    if (ghz <= 0.0)
        panic("Core: non-positive frequency %g GHz", ghz);
    ghz_ = ghz;
    cpuPeriod_ = periodFromMHz(ghz * 1000.0);
}

void
Core::start()
{
    startedAt_ = eq_.now();
    beginChunk();
}

void
Core::beginChunk()
{
    if (!source_.next(chunk_)) {
        if (doneAt_ == MaxTick) {
            doneAt_ = eq_.now();
            if (onDone_)
                onDone_();
        }
        return;
    }

    chunkStart_ = eq_.now();
    chunkLen_ = static_cast<Tick>(
        std::llround(static_cast<double>(chunk_.instructions) *
                     chunk_.cpi * static_cast<double>(cpuPeriod_)));
    computing_ = true;
    if (chunkLen_ == 0) {
        issueMiss();
    } else {
        eq_.scheduleIn(chunkLen_, [this] { issueMiss(); },
                       EventClass::Hardware, {EvCoreIssueMiss, id_});
    }
}

void
Core::issueMiss()
{
    computing_ = false;
    retired_ += chunk_.instructions;
    ++tlm_;
    stallStart_ = eq_.now();

    if (chunk_.hasWriteback)
        mc_.writeback(chunk_.writebackAddr, id_);
    mc_.read(chunk_.missAddr, id_, this);
}

void
Core::onMemComplete(Tick when, const MemRequest &)
{
    stallTime_ += when - stallStart_;
    // The missing instruction commits when its data arrives.
    retired_ += 1;

    if (doneAt_ == MaxTick && retired_ >= params_.instrBudget) {
        doneAt_ = when;
        if (onDone_)
            onDone_();
        if (!params_.runPastBudget)
            return;
    }
    beginChunk();
}

std::uint64_t
Core::tic(Tick now) const
{
    if (!computing_ || chunkLen_ == 0 || now <= chunkStart_)
        return retired_;
    Tick elapsed = now - chunkStart_;
    if (elapsed >= chunkLen_)
        return retired_ + chunk_.instructions;
    double frac = static_cast<double>(elapsed) /
                  static_cast<double>(chunkLen_);
    return retired_ + static_cast<std::uint64_t>(
        frac * static_cast<double>(chunk_.instructions));
}

void
Core::transfer(SectionIO &io)
{
    double ghz = ghz_;
    io(ghz);
    io(chunk_.instructions);
    io(chunk_.cpi);
    io(chunk_.missAddr);
    io(chunk_.hasWriteback);
    io(chunk_.writebackAddr);
    io(computing_);
    io(chunkStart_);
    io(chunkLen_);
    io(retired_);
    io(tlm_);
    io(stallTime_);
    io(stallStart_);
    io(startedAt_);
    io(doneAt_);
    // Recomputes cpuPeriod_ from the clock, exactly as the live run
    // did; nominalPeriod_ is a constructor constant.
    if (!io.loading())
        return;
    if (!(ghz > 0.0) || !std::isfinite(ghz))
        io.fail("core %u clock %g GHz is not a positive frequency", id_,
                ghz);
    setFrequencyGHz(ghz);
}

EventCallback
Core::rebuildEvent(std::uint32_t kind)
{
    if (kind != EvCoreIssueMiss)
        panic("Core %u: cannot rebuild event kind %s", id_,
              eventKindName(kind));
    return [this] { issueMiss(); };
}

double
Core::budgetCpi() const
{
    if (doneAt_ == MaxTick)
        return 0.0;
    double cycles = static_cast<double>(doneAt_ - startedAt_) /
                    static_cast<double>(nominalPeriod_);
    return cycles / static_cast<double>(params_.instrBudget);
}

} // namespace memscale
