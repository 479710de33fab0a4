#include "memscale/policies/static_policy.hh"

namespace memscale
{

void
StaticPolicy::configure(MemoryController &mc, const PolicyContext &)
{
    mc.setFrequency(freqIndexForMHz(setup_.busMHz));
    mc.setPowerdownMode(setup_.pd);
    mc.setDecoupled(setup_.deviceMHz);
    mc.setThrottle(setup_.throttle);
}

} // namespace memscale
