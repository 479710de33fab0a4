/**
 * @file
 * Fixed memory-controller settings, chosen once in configure() and
 * never changed: the max-frequency baseline, Static (467 MHz in the
 * paper, the best average that never violates the performance
 * target), the powerdown policies (Fast-PD, Slow-PD, SR-PD, deep PD,
 * the ladder; paper Section 4.2.3), Decoupled DIMMs (Zheng et al.,
 * ISCA'09: devices at a lower clock behind a synchronization buffer
 * whose power the paper, and we, ignore) and memory throttling (paper
 * Section 5: caps the request rate, which limits peak power but, as
 * the paper argues, conserves essentially no energy).  Each is one
 * row of makePolicy()'s table.
 */

#ifndef MEMSCALE_MEMSCALE_POLICIES_STATIC_POLICY_HH
#define MEMSCALE_MEMSCALE_POLICIES_STATIC_POLICY_HH

#include "memscale/policies/policy.hh"

namespace memscale
{

class StaticPolicy : public NamedPolicy
{
  public:
    struct Setup
    {
        /** Bus clock; the fastest grid point not above it is used. */
        std::uint32_t busMHz = busFreqGridMHz[nominalFreqIndex];
        PowerdownMode pd = PowerdownMode::None;
        /** Decoupled DIMMs' device clock; 0 = off. */
        std::uint32_t deviceMHz = 0;
        /** Data-bus utilization cap in (0,1]; 0 = no throttling. */
        double throttle = 0.0;
    };

    StaticPolicy(std::string name, const Setup &setup)
        : NamedPolicy(std::move(name)), setup_(setup)
    {}

    void configure(MemoryController &mc,
                   const PolicyContext &ctx) override;

  private:
    Setup setup_;
};

} // namespace memscale

#endif // MEMSCALE_MEMSCALE_POLICIES_STATIC_POLICY_HH
