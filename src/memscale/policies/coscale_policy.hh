/**
 * @file
 * Coordinated CPU + memory DVFS (paper Section 6 future work; the
 * idea later published as CoScale, MICRO'12): each epoch the policy
 * searches the cross product of memory grid points and CPU clocks,
 * predicts per-core time as
 *
 *   tpi_i(f_mem, g_cpu) = TPI_cpu_i * (g_nom / g_cpu)
 *                         + alpha_i * TPI_mem(f_mem)
 *
 * and picks the pair minimizing predicted full-system energy
 * (memory model reused from MemScale, plus an explicit V^2 f CPU
 * power model) subject to the same slack-managed per-core bound.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_COSCALE_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_COSCALE_POLICY_HH

#include "memscale/policies/policy.hh"
#include "memscale/slack.hh"

namespace memscale
{

class CoScalePolicy : public NamedPolicy
{
  public:
    using NamedPolicy::NamedPolicy;
    bool dynamic() const override { return true; }

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

    FreqIndex selectFrequency(const ProfileData &profile,
                              const PolicyContext &ctx,
                              FreqIndex current) override;

    void endEpoch(const ProfileData &epoch,
                  const PolicyContext &ctx) override;

    double selectedCpuGHz() const override { return chosenGHz_; }

    const SlackTracker &slack() const { return slack_; }

  private:
    void
    transfer(SectionIO &io) override
    {
        slack_.transfer(io);
        io(chosenGHz_);
        io(currentGHz_);
    }

    SlackTracker slack_;
    PerfModel perf_;
    double chosenGHz_ = 0.0;
    double currentGHz_ = 0.0;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_COSCALE_POLICY_HH
