#include "workload/trace_source.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace memscale
{

SyntheticTraceSource::SyntheticTraceSource(const AppProfile &profile,
                                           Addr base,
                                           std::uint32_t line_bytes,
                                           std::uint64_t seed)
    : profile_(profile), rng_(seed), base_(base),
      lineBytes_(line_bytes),
      footprintLines_(profile.footprintBytes / line_bytes)
{
    if (profile_.phases.empty())
        fatal("SyntheticTraceSource: profile '%s' has no phases",
              profile_.name.c_str());
    if (footprintLines_ == 0)
        fatal("SyntheticTraceSource: zero footprint");
    streamLine_ = rng_.below(footprintLines_);
}

const AppPhase &
SyntheticTraceSource::currentPhase()
{
    const AppPhase *ph = &profile_.phases[phaseIdx_];
    while (ph->instructions != 0 && phaseInstr_ >= ph->instructions) {
        phaseInstr_ -= ph->instructions;
        ++phaseIdx_;
        if (phaseIdx_ == profile_.phases.size()) {
            if (!profile_.loopPhases) {
                exhausted_ = true;
                phaseIdx_ = profile_.phases.size() - 1;
                break;
            }
            phaseIdx_ = 0;
        }
        ph = &profile_.phases[phaseIdx_];
    }
    return *ph;
}

Addr
SyntheticTraceSource::pickMissAddr(const AppPhase &ph)
{
    std::uint64_t line;
    if (rng_.chance(ph.streamFrac)) {
        streamLine_ = (streamLine_ + 1) % footprintLines_;
        line = streamLine_;
    } else {
        line = rng_.below(footprintLines_);
    }
    return base_ + line * lineBytes_;
}

bool
SyntheticTraceSource::next(TraceChunk &chunk)
{
    if (exhausted_)
        return false;
    const AppPhase &ph = currentPhase();
    if (exhausted_)
        return false;

    // Exponential inter-miss gap with mean 1000/MPKI instructions.
    double mean = ph.mpki > 0.0 ? 1000.0 / ph.mpki : 1.0e9;
    auto gap = static_cast<std::uint64_t>(
        std::llround(rng_.exponential(mean)));
    // Cap the gap so phase boundaries are respected reasonably.
    if (ph.instructions != 0) {
        std::uint64_t left = ph.instructions > phaseInstr_
                                 ? ph.instructions - phaseInstr_
                                 : 0;
        gap = std::min(gap, left + 1);
    }

    chunk.instructions = gap;
    chunk.cpi = ph.baseCpi;
    chunk.missAddr = pickMissAddr(ph);
    double wb_prob = ph.mpki > 0.0
                         ? std::min(1.0, ph.wpki / ph.mpki)
                         : 0.0;
    chunk.hasWriteback = rng_.chance(wb_prob);
    if (chunk.hasWriteback) {
        // Victim lines come from the same footprint; bias toward the
        // vicinity of recent activity for mild locality.
        std::uint64_t victim =
            (streamLine_ + rng_.below(1024)) % footprintLines_;
        chunk.writebackAddr = base_ + victim * lineBytes_;
    }

    phaseInstr_ += gap + 1;
    generated_ += gap + 1;
    return true;
}

void
SyntheticTraceSource::transfer(SectionIO &io)
{
    io(rng_);
    io(phaseIdx_);
    io(phaseInstr_);
    io(generated_);
    io(streamLine_);
    io(exhausted_);
    if (io.loading() && phaseIdx_ >= profile_.phases.size())
        io.fail("trace phase %zu out of the profile's %zu", phaseIdx_,
                profile_.phases.size());
}

} // namespace memscale
