/**
 * @file
 * Per-channel MemScale (paper Section 6 future work): each channel is
 * re-locked independently using its own counter block, so a channel
 * serving hot banks can stay fast while colder channels scale deeper.
 *
 * A core's memory time under mixed channel frequencies is modelled as
 * the traffic-weighted mix of the per-channel Eq. 9 predictions; the
 * slack feasibility test then runs against that blend.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_PERCHANNEL_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_PERCHANNEL_POLICY_HH

#include "memscale/policies/policy.hh"
#include "memscale/slack.hh"

namespace memscale
{

class PerChannelMemScalePolicy : public NamedPolicy
{
  public:
    using NamedPolicy::NamedPolicy;
    bool dynamic() const override { return true; }

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

    FreqIndex selectFrequency(const ProfileData &profile,
                              const PolicyContext &ctx,
                              FreqIndex current) override;

    void
    endEpoch(const ProfileData &epoch, const PolicyContext &ctx) override
    {
        slack_.bankEpoch(epoch, ctx.cpuGHz);
    }

  private:
    void
    transfer(SectionIO &io) override
    {
        slack_.transfer(io);
        io(choices_);
        io.list(chanPrev_, [&io](McCounters &c) { c.transfer(io); });
    }

    /**
     * The epoch controller drives the whole-subsystem interface; this
     * policy additionally needs the controller to apply per-channel
     * choices, so it keeps a reference from configure().
     */
    MemoryController *mc_ = nullptr;
    SlackTracker slack_;
    PerfModel perf_;
    std::vector<FreqIndex> choices_;
    /** Previous per-channel counter snapshots (for window deltas). */
    std::vector<McCounters> chanPrev_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_PERCHANNEL_POLICY_HH
