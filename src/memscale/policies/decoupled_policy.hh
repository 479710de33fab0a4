/**
 * @file
 * Decoupled DIMMs (Zheng et al., ISCA'09), the paper's closest prior
 * work: memory channels stay at 800 MHz while the DRAM devices run at
 * a statically chosen lower frequency (400 MHz in the paper), bridged
 * by a synchronization buffer whose power the paper — and we —
 * optimistically ignore.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_DECOUPLED_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_DECOUPLED_POLICY_HH

#include "memscale/policies/policy.hh"

namespace memscale
{

class DecoupledPolicy : public Policy
{
  public:
    /** Default device frequency: the paper's 400 MHz. */
    explicit DecoupledPolicy(std::uint32_t device_mhz = 400)
        : deviceMHz_(device_mhz)
    {}

    std::string name() const override { return "decoupled"; }
    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

  private:
    std::uint32_t deviceMHz_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_DECOUPLED_POLICY_HH
