/**
 * @file
 * Extension (paper Section 6 future work, later CoScale MICRO'12):
 * coordinated CPU + memory DVFS.  With CPU power modelled explicitly,
 * compares memory-only MemScale against the coordinated policy that
 * also re-clocks the cores, under the same per-core slack bound.
 *
 * Expectation: on memory-bound phases the CPU mostly waits, so
 * scaling it alongside the memory harvests additional energy within
 * the same performance budget; compute-bound mixes keep the CPU fast.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    cfg.modelCpuPower = true;
    benchHeader(conf, "Extension", "coordinated CPU+memory DVFS (CoScale)",
                cfg);

    const std::vector<const char *> mixnames = {"ILP2", "MID1", "MID2",
                                                "MID3", "MEM2"};
    const std::vector<std::string> policies = {"memscale", "coscale"};

    std::vector<SystemConfig> cfgs;
    for (const char *mixname : mixnames) {
        cfgs.push_back(cfg);
        cfgs.back().mixName = mixname;
    }
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, policies);

    Table t({"mix", "class", "policy", "sys saved", "mem saved",
             "CPU energy (vs base)", "worst CPI incr"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ComparisonResult &r = results[p * cfgs.size() + i];
            const RunResult &base = bases[i].base;
            double cpu_ratio =
                base.energy.cpu > 0.0
                    ? r.policy.energy.cpu / base.energy.cpu
                    : 1.0;
            t.addRow({mixnames[i], mixByName(mixnames[i]).klass,
                      policies[p], pct(r.sysEnergySavings),
                      pct(r.memEnergySavings), pct(cpu_ratio),
                      pct(r.worstCpiIncrease)});
        }
    }
    t.print("coordinated scaling vs memory-only MemScale "
            "(CPU power modelled explicitly)");
    std::printf("\nexpectation: coscale matches or beats memscale on "
                "system energy by also shrinking\nCPU energy on "
                "memory-heavy mixes, within the same CPI bound.\n");
    return 0;
}
