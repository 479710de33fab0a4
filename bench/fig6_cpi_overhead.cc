/**
 * @file
 * Figure 6 reproduction: average and worst-program CPI increase of
 * MemScale per mix against the 10% degradation bound.
 *
 * Paper reference: no application slowed more than 9.2%; workload
 * averages never above 7.2%; ILP < MID < MEM ordering.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 6", "MemScale CPI overhead per mix", cfg);

    std::vector<SweepCase> cases;
    for (const MixSpec &mix : allMixes()) {
        SystemConfig c = cfg;
        c.mixName = mix.name;
        cases.push_back(SweepCase{std::move(c), "memscale"});
    }
    std::vector<ComparisonResult> results = compareCases(eng, cases);

    Table t({"mix", "class", "avg CPI increase", "worst CPI increase",
             "bound", "worst app"});
    double global_worst = 0.0;
    double worst_avg = 0.0;
    std::size_t idx = 0;
    for (const MixSpec &mix : allMixes()) {
        const ComparisonResult &r = results[idx++];
        std::size_t worst_i = 0;
        for (std::size_t i = 1; i < r.cpiIncrease.size(); ++i)
            if (r.cpiIncrease[i] > r.cpiIncrease[worst_i])
                worst_i = i;
        t.addRow({mix.name, mix.klass, pct(r.avgCpiIncrease),
                  pct(r.worstCpiIncrease), pct(cfg.gamma),
                  r.base.coreApp[worst_i]});
        global_worst = std::max(global_worst, r.worstCpiIncrease);
        worst_avg = std::max(worst_avg, r.avgCpiIncrease);
    }
    t.print("Fig. 6: CPI overhead (paper: worst program <= 9.2%, "
            "worst average <= 7.2%)");
    std::printf("\nmeasured: worst program %s, worst average %s, "
                "bound %s\n",
                pct(global_worst).c_str(), pct(worst_avg).c_str(),
                pct(cfg.gamma).c_str());
    return 0;
}
