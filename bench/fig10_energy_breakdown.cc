/**
 * @file
 * Figure 10 reproduction: MID-average system energy breakdown (DRAM,
 * PLL/Reg, MC, rest-of-system) per policy, normalized to the baseline.
 *
 * Paper reference: MemScale cuts DRAM, PLL/Reg *and* MC energy;
 * Decoupled only cuts DRAM energy; Slow-PD inflates rest-of-system
 * energy through its slowdown.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 10", "system energy breakdown by policy (MID)",
                cfg);

    std::vector<std::string> policies = {"baseline"};
    policies.insert(policies.end(), paperPolicies.begin(),
                    paperPolicies.end());

    std::vector<SystemConfig> cfgs = midConfigs(cfg);
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    double base_total = 0.0;
    for (const CalibratedBaseline &b : bases)
        base_total += b.base.energy.total();
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, paperPolicies);

    Table t({"policy", "DRAM", "PLL/Reg", "MC", "rest of system",
             "total (vs base)"});
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        const std::string &p = policies[pi];
        EnergyBreakdown sum;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            if (pi == 0) {  // "baseline"
                sum += bases[i].base.energy;
            } else {
                sum += results[(pi - 1) * cfgs.size() + i]
                           .policy.energy;
            }
        }
        t.addRow({p, pct(sum.dram() / base_total),
                  pct(sum.pllReg / base_total),
                  pct(sum.mc / base_total),
                  pct(sum.rest / base_total),
                  pct(sum.total() / base_total)});
    }
    t.print("Fig. 10: energy split, normalized to baseline total");
    return 0;
}
