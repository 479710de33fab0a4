/**
 * @file
 * Fast-PD / Slow-PD: today's aggressive memory controllers, which
 * transition a rank to (fast- or slow-exit) precharge powerdown the
 * moment its last open bank closes (paper Section 4.2.3).
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_POWERDOWN_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_POWERDOWN_POLICY_HH

#include "memscale/policies/policy.hh"

namespace memscale
{

class PowerdownPolicy : public Policy
{
  public:
    explicit PowerdownPolicy(PowerdownMode mode) : mode_(mode) {}

    std::string name() const override;

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

  private:
    PowerdownMode mode_;
};

/**
 * Memory throttling (paper Section 5, related work): caps the request
 * rate at nominal frequency.  Limits peak power/temperature but, as
 * the paper argues, delaying accesses conserves essentially no
 * energy -- included as the contrast baseline.
 */
class ThrottlePolicy : public Policy
{
  public:
    explicit ThrottlePolicy(double max_util = 0.5)
        : maxUtil_(max_util)
    {}

    std::string name() const override { return "throttle"; }
    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

  private:
    double maxUtil_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_POWERDOWN_POLICY_HH
