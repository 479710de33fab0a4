/**
 * @file
 * The paper's motivating argument (Sections 1 and 5) quantified: idle
 * low-power states and throttling cannot match active low-power modes
 * on servers because rank-level idleness is scarce.  Compares the
 * whole DDR3 idle ladder — fast-exit powerdown, slow-exit powerdown,
 * self-refresh, self-refresh with slow clock, deep powerdown, and the
 * adaptive demotion policy that walks ranks down those rungs — plus
 * bandwidth throttling, MemScale, and MemScale composed with the
 * ladder, across the three workload classes.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Ablation",
                "idle states + throttling vs active low-power modes",
                cfg);

    const std::vector<std::string> policies = {
        "fastpd", "slowpd",  "srpd",     "srslowpd", "deeppd",
        "ladder", "throttle", "memscale", "memscale-ladder"};
    const std::vector<const char *> mixnames = {"ILP2", "MID2", "MEM2"};

    std::vector<SystemConfig> cfgs;
    for (const char *mixname : mixnames) {
        cfgs.push_back(cfg);
        cfgs.back().mixName = mixname;
    }
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, policies);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        Table t({"policy", "rank idle (pre-PD) time", "deep idle time",
                 "demotions", "sys saved", "mem saved",
                 "worst CPI incr"});
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ComparisonResult &r = results[p * cfgs.size() + i];
            const McCounters &mc = r.policy.counters;
            double pd_frac =
                mc.rankTime
                    ? static_cast<double>(mc.rankPrePdTime) /
                          static_cast<double>(mc.rankTime)
                    : 0.0;
            // Self-refresh and below: the rungs this PR added.
            double deep_frac =
                mc.rankTime
                    ? static_cast<double>(mc.rankSrTime +
                                          mc.rankSrSlowTime +
                                          mc.rankDeepPdTime) /
                          static_cast<double>(mc.rankTime)
                    : 0.0;
            t.addRow({policies[p], pct(pd_frac), pct(deep_frac),
                      std::to_string(mc.pdDemotions),
                      pct(r.sysEnergySavings),
                      pct(r.memEnergySavings),
                      pct(r.worstCpiIncrease)});
        }
        t.print(std::string("idle-state comparison, ") + mixnames[i]);
    }
    std::printf("\nexpectation (paper Sections 1/5): even immediate "
                "powerdown finds limited rank idleness\nonce traffic "
                "exists; deep states pay exit latency; throttling "
                "only delays accesses;\nactive modes (MemScale) win "
                "across all classes.\n");
    return 0;
}
