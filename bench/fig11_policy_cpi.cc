/**
 * @file
 * Figure 11 reproduction: MID-average and worst-program CPI overhead
 * per policy.
 *
 * Paper reference: MemScale variants stay under the 10% bound (the
 * MemEnergy variant may exceed it slightly); Slow-PD reaches ~15%.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 11", "CPI overhead by policy (MID)", cfg);

    std::vector<SystemConfig> cfgs = midConfigs(cfg);
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, paperPolicies);

    Table t({"policy", "avg CPI increase", "worst CPI increase",
             "bound"});
    for (std::size_t p = 0; p < paperPolicies.size(); ++p) {
        double avg = 0.0, worst = 0.0;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const ComparisonResult &r = results[p * cfgs.size() + i];
            avg += r.avgCpiIncrease;
            worst = std::max(worst, r.worstCpiIncrease);
        }
        t.addRow({paperPolicies[p], pct(avg / cfgs.size()), pct(worst),
                  pct(cfg.gamma)});
    }
    t.print("Fig. 11: CPI overhead by policy");
    return 0;
}
