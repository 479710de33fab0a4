#include "memscale/policies/policy.hh"

#include "common/config.hh"
#include "common/log.hh"
#include "memscale/policies/coscale_policy.hh"
#include "memscale/policies/fastcap_policy.hh"
#include "memscale/policies/memscale_policy.hh"
#include "memscale/policies/perchannel_policy.hh"
#include "memscale/policies/slo_policy.hh"
#include "memscale/policies/static_policy.hh"
#include "snapshot/serializer.hh"

namespace memscale
{

void
Policy::configure(MemoryController &mc, const PolicyContext &ctx)
{
    (void)ctx;
    mc.setFrequency(nominalFreqIndex);
    mc.setPowerdownMode(PowerdownMode::None);
}

void
Policy::saveState(SectionWriter &w) const
{
    SectionIO io(w);
    const_cast<Policy &>(*this).transfer(io);
}

void
Policy::restoreState(SectionReader &r)
{
    SectionIO io(r);
    transfer(io);
}

namespace
{

/**
 * One row per policy.  A name is spelled here and nowhere else: the
 * classes answer name() with the name they were made under.
 */
struct PolicyRow
{
    const char *name;
    /** Listed by policyNames() (see policy.hh). */
    bool listed;
    std::unique_ptr<Policy> (*make)(std::string name);
};

/** Factory for class P built from its name and then `args`. */
template <class P, auto... args>
std::unique_ptr<Policy>
make(std::string name)
{
    return std::make_unique<P>(std::move(name), args...);
}

using Fixed = StaticPolicy::Setup;
using MemScaleOpts = MemScalePolicy::Options;

/** Fixed settings, then dynamic policies; policyNames() keeps this order. */
const PolicyRow policyTable[] = {
    {"baseline", true, make<StaticPolicy, Fixed{}>},
    {"static", true, make<StaticPolicy, Fixed{.busMHz = 467}>},
    {"fastpd", true,
     make<StaticPolicy, Fixed{.pd = PowerdownMode::FastExit}>},
    {"slowpd", true,
     make<StaticPolicy, Fixed{.pd = PowerdownMode::SlowExit}>},
    {"srpd", true,
     make<StaticPolicy, Fixed{.pd = PowerdownMode::SelfRefresh}>},
    {"srslowpd", true,
     make<StaticPolicy, Fixed{.pd = PowerdownMode::SelfRefreshSlow}>},
    {"deeppd", true,
     make<StaticPolicy, Fixed{.pd = PowerdownMode::DeepPowerdown}>},
    {"ladder", true,
     make<StaticPolicy, Fixed{.pd = PowerdownMode::Ladder}>},
    {"throttle", true, make<StaticPolicy, Fixed{.throttle = 0.5}>},
    {"decoupled", true, make<StaticPolicy, Fixed{.deviceMHz = 400}>},
    {"memscale", true, make<MemScalePolicy>},
    {"memscale-memenergy", true,
     make<MemScalePolicy, MemScaleOpts{.memoryEnergyOnly = true}>},
    {"memscale-fastpd", true,
     make<MemScalePolicy, MemScaleOpts{.pd = PowerdownMode::FastExit}>},
    {"memscale-ladder", true,
     make<MemScalePolicy, MemScaleOpts{.pd = PowerdownMode::Ladder}>},
    {"memscale-perchannel", true, make<PerChannelMemScalePolicy>},
    {"slo", true, make<SloPolicy>},
    {"coscale", false, make<CoScalePolicy>},
    {"fastcap", false, make<FastCapPolicy>},
};

std::vector<std::string>
tableNames(bool listedOnly)
{
    std::vector<std::string> names;
    for (const PolicyRow &row : policyTable) {
        if (row.listed || !listedOnly)
            names.push_back(row.name);
    }
    return names;
}

} // namespace

std::unique_ptr<Policy>
makePolicy(const std::string &name)
{
    for (const PolicyRow &row : policyTable) {
        if (name == row.name)
            return row.make(name);
    }
    fatal("unknown policy '%s' (known: %s)", name.c_str(),
          joined(allPolicyNames()).c_str());
}

std::vector<std::string>
allPolicyNames()
{
    return tableNames(false);
}

std::vector<std::string>
policyNames()
{
    return tableNames(true);
}

} // namespace memscale
