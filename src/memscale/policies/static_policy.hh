/**
 * @file
 * Baseline and Static policies.
 *
 * Baseline keeps the memory subsystem at nominal frequency with no
 * powerdown (the paper's reference).  Static selects a single fixed
 * frequency before the run starts — 467 MHz in the paper, the best
 * average that never violates the performance target.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_STATIC_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_STATIC_POLICY_HH

#include "memscale/policies/policy.hh"

namespace memscale
{

class BaselinePolicy : public Policy
{
  public:
    std::string name() const override { return "baseline"; }
    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;
};

class StaticPolicy : public Policy
{
  public:
    /** Default: the paper's 467 MHz grid point. */
    explicit StaticPolicy(std::uint32_t mhz = 467) : mhz_(mhz) {}

    std::string name() const override { return "static"; }
    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

  private:
    std::uint32_t mhz_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_STATIC_POLICY_HH
