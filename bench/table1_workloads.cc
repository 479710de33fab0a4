/**
 * @file
 * Table 1 reproduction: measured RPKI/WPKI of the synthetic workload
 * mixes next to the paper's reference values, plus the application
 * composition of each mix.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Table 1", "workload mixes: measured vs paper RPKI/WPKI",
                cfg);

    std::vector<SystemConfig> cfgs;
    for (const MixSpec &mix : allMixes()) {
        cfgs.push_back(cfg);
        cfgs.back().mixName = mix.name;
    }
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);

    Table t({"mix", "class", "RPKI paper", "RPKI meas", "WPKI paper",
             "WPKI meas", "applications (x4 each)"});
    std::size_t i = 0;
    for (const MixSpec &mix : allMixes()) {
        const RunResult &base = bases[i++].base;
        std::string apps;
        for (const auto &a : mix.apps)
            apps += a + " ";
        t.addRow({mix.name, mix.klass, fmt(mix.paperRpki),
                  fmt(base.measuredRpki), fmt(mix.paperWpki),
                  fmt(base.measuredWpki), apps});
    }
    t.print("Table 1: workload characteristics");
    return 0;
}
