/**
 * @file
 * Figure 5 reproduction: memory-subsystem and full-system energy
 * savings of MemScale vs. the max-frequency baseline for all 12
 * workload mixes at the default 10% CPI degradation bound.
 *
 * Paper reference: memory savings 17-71%, system savings 6-31%;
 * ILP > MID > MEM ordering.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    benchExportKeys(conf, cfg);
    if (int rc = maybeSelfCheck(conf, cfg); rc >= 0)
        return rc;
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 5", "MemScale energy savings per mix", cfg);

    std::vector<SweepCase> cases;
    for (const MixSpec &mix : allMixes()) {
        SystemConfig c = cfg;
        c.mixName = mix.name;
        cases.push_back(SweepCase{std::move(c), "memscale"});
    }
    std::vector<ComparisonResult> results = compareCases(eng, cases);

    Table t({"mix", "class", "mem energy saved", "sys energy saved",
             "runtime base(ms)", "runtime ms(ms)"});
    double mem_min = 1.0, mem_max = 0.0, sys_min = 1.0, sys_max = 0.0;
    std::size_t i = 0;
    for (const MixSpec &mix : allMixes()) {
        const ComparisonResult &r = results[i++];
        maybeExportObs(conf, r.policy, mix.name);
        t.addRow({mix.name, mix.klass, pct(r.memEnergySavings),
                  pct(r.sysEnergySavings),
                  fmt(tickToMs(r.base.runtime)),
                  fmt(tickToMs(r.policy.runtime))});
        mem_min = std::min(mem_min, r.memEnergySavings);
        mem_max = std::max(mem_max, r.memEnergySavings);
        sys_min = std::min(sys_min, r.sysEnergySavings);
        sys_max = std::max(sys_max, r.sysEnergySavings);
    }
    t.print("Fig. 5: energy savings vs baseline (paper: mem 17-71%, "
            "sys 6-31%)");
    std::printf("\nmeasured ranges: memory %s..%s, system %s..%s\n",
                pct(mem_min).c_str(), pct(mem_max).c_str(),
                pct(sys_min).c_str(), pct(sys_max).c_str());
    return 0;
}
