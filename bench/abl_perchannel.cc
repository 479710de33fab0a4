/**
 * @file
 * Extension (paper Section 6 future work): per-channel frequency
 * selection.  Compares lockstep MemScale against the per-channel
 * variant on the MID mixes and on a deliberately skewed workload
 * (memory-hot and compute-only applications whose footprints load the
 * channels unevenly through capacity placement).
 */

#include "bench_common.hh"

using namespace memscale;

namespace
{

/** A skewed two-app workload: half swim-like, half eon-like. */
std::vector<AppProfile>
skewedApps()
{
    AppProfile hot = appByName("swim");
    AppProfile cold = appByName("eon");
    return {hot, cold};
}

} // namespace

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Extension", "per-channel DVFS vs lockstep MemScale",
                cfg);

    const std::vector<std::string> policies = {"memscale",
                                               "memscale-perchannel"};

    std::vector<SystemConfig> cfgs = midConfigs(cfg);
    cfgs.push_back(cfg);
    cfgs.back().mixName = "skewed";
    cfgs.back().customApps = skewedApps();

    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, policies);

    Table t({"workload", "policy", "sys energy saved",
             "mem energy saved", "worst CPI incr"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ComparisonResult &r = results[p * cfgs.size() + i];
            t.addRow({cfgs[i].mixName, policies[p],
                      pct(r.sysEnergySavings),
                      pct(r.memEnergySavings),
                      pct(r.worstCpiIncrease)});
        }
    }
    t.print("per-channel DVFS extension");
    std::printf("\nwith line-interleaved channels the loads are nearly "
                "symmetric, so parity with\nlockstep MemScale is the "
                "expected result; gains require skewed channel "
                "traffic.\n");
    return 0;
}
