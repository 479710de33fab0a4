#include "memscale/policies/static_policy.hh"

namespace memscale
{

void
StaticPolicy::configure(MemoryController &mc, const PolicyContext &)
{
    mc.setFrequency(freqIndexForMHz(setup_.busMHz));
    mc.setPowerdownMode(setup_.pd);
    if (setup_.deviceMHz != 0)
        mc.setDecoupled(setup_.deviceMHz);
    if (setup_.throttle != 0.0)
        mc.setThrottle(setup_.throttle);
}

} // namespace memscale
