#include "memscale/policies/policy.hh"

#include "common/log.hh"
#include "memscale/policies/coscale_policy.hh"
#include "memscale/policies/decoupled_policy.hh"
#include "memscale/policies/fastcap_policy.hh"
#include "memscale/policies/memscale_policy.hh"
#include "memscale/policies/perchannel_policy.hh"
#include "memscale/policies/powerdown_policy.hh"
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

std::unique_ptr<Policy>
makePolicy(const std::string &name)
{
    if (name == "baseline")
        return std::make_unique<BaselinePolicy>();
    if (name == "static")
        return std::make_unique<StaticPolicy>();
    if (name == "fastpd")
        return std::make_unique<PowerdownPolicy>(
            PowerdownMode::FastExit);
    if (name == "slowpd")
        return std::make_unique<PowerdownPolicy>(
            PowerdownMode::SlowExit);
    if (name == "srpd")
        return std::make_unique<PowerdownPolicy>(
            PowerdownMode::SelfRefresh);
    if (name == "srslowpd")
        return std::make_unique<PowerdownPolicy>(
            PowerdownMode::SelfRefreshSlow);
    if (name == "deeppd")
        return std::make_unique<PowerdownPolicy>(
            PowerdownMode::DeepPowerdown);
    if (name == "ladder")
        return std::make_unique<PowerdownPolicy>(
            PowerdownMode::Ladder);
    if (name == "throttle")
        return std::make_unique<ThrottlePolicy>();
    if (name == "decoupled")
        return std::make_unique<DecoupledPolicy>();
    if (name == "memscale")
        return std::make_unique<MemScalePolicy>();
    if (name == "memscale-memenergy") {
        MemScalePolicy::Options o;
        o.memoryEnergyOnly = true;
        return std::make_unique<MemScalePolicy>(o);
    }
    if (name == "memscale-fastpd") {
        MemScalePolicy::Options o;
        o.withFastPd = true;
        return std::make_unique<MemScalePolicy>(o);
    }
    if (name == "memscale-ladder") {
        MemScalePolicy::Options o;
        o.withLadder = true;
        return std::make_unique<MemScalePolicy>(o);
    }
    if (name == "memscale-perchannel")
        return std::make_unique<PerChannelMemScalePolicy>();
    if (name == "coscale")
        return std::make_unique<CoScalePolicy>();
    if (name == "fastcap")
        return std::make_unique<FastCapPolicy>();
    if (name == "slo")
        return std::make_unique<SloPolicy>();
    fatal("unknown policy '%s'", name.c_str());
}

std::vector<std::string>
policyNames()
{
    return {"baseline", "static", "fastpd", "slowpd", "srpd",
            "srslowpd", "deeppd", "ladder", "throttle", "decoupled",
            "memscale", "memscale-memenergy", "memscale-fastpd",
            "memscale-ladder", "memscale-perchannel", "slo"};
}

} // namespace memscale
