/**
 * @file
 * The MemScale OS policy (paper Section 3.2): each epoch, profile,
 * predict CPI and system energy at every grid frequency, keep the
 * candidates whose predicted slowdown fits each core's accumulated
 * slack, and pick the one minimizing the (full-system or memory-only)
 * energy.  Optionally combines with an idle-rank powerdown mode
 * (MemScale + Fast-PD, MemScale + Ladder).
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_MEMSCALE_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_MEMSCALE_POLICY_HH

#include "memscale/policies/policy.hh"
#include "memscale/slack.hh"

namespace memscale
{

class MemScalePolicy : public NamedPolicy
{
  public:
    struct Options
    {
        /** Idle-rank powerdown alongside scaling (MemScale + Fast-PD,
         * MemScale + Ladder). */
        PowerdownMode pd = PowerdownMode::None;
        /** Minimize memory energy only (MemScale(MemEnergy)). */
        bool memoryEnergyOnly = false;
    };

    using NamedPolicy::NamedPolicy;
    MemScalePolicy(std::string name, const Options &opts)
        : NamedPolicy(std::move(name)), opts_(opts)
    {}

    bool dynamic() const override { return true; }

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

    FreqIndex selectFrequency(const ProfileData &profile,
                              const PolicyContext &ctx,
                              FreqIndex current) override;

    void endEpoch(const ProfileData &epoch,
                  const PolicyContext &ctx) override;

    const SlackTracker &slack() const { return slack_; }

    PolicyDecision lastDecision() const override
    {
        return decision_;
    }

    void registerStats(StatRegistry &reg,
                       const std::string &prefix) override;

  private:
    void
    transfer(SectionIO &io) override
    {
        slack_.transfer(io);
        io(decision_.valid);
        io(decision_.chosen);
        io(decision_.predictedCpi);
        io(decision_.predictedMemJ);
        io(decision_.predictedSysJ);
        io(decision_.ser);
        io(decision_.minSlack);
    }

    Options opts_;
    SlackTracker slack_;
    PerfModel perf_;
    PolicyDecision decision_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_MEMSCALE_POLICY_HH
