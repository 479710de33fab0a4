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
        halted_ = true;
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
        if (!params_.runPastBudget) {
            halted_ = true;
            return;
        }
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
Core::saveState(SectionWriter &w) const
{
    w.f64(ghz_);
    w.u64(chunk_.instructions);
    w.f64(chunk_.cpi);
    w.u64(chunk_.missAddr);
    w.b(chunk_.hasWriteback);
    w.u64(chunk_.writebackAddr);
    w.b(computing_);
    w.b(halted_);
    w.u64(chunkStart_);
    w.u64(chunkLen_);
    w.u64(retired_);
    w.u64(tlm_);
    w.u64(stallTime_);
    w.u64(stallStart_);
    w.u64(startedAt_);
    w.u64(doneAt_);
}

void
Core::restoreState(SectionReader &r)
{
    // Recomputes cpuPeriod_ from the clock, exactly as the live run
    // did; nominalPeriod_ is a constructor constant.
    setFrequencyGHz(r.f64());
    chunk_.instructions = r.u64();
    chunk_.cpi = r.f64();
    chunk_.missAddr = r.u64();
    chunk_.hasWriteback = r.b();
    chunk_.writebackAddr = r.u64();
    computing_ = r.b();
    halted_ = r.b();
    chunkStart_ = r.u64();
    chunkLen_ = r.u64();
    retired_ = r.u64();
    tlm_ = r.u64();
    stallTime_ = r.u64();
    stallStart_ = r.u64();
    startedAt_ = r.u64();
    doneAt_ = r.u64();
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
