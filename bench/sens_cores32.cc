/**
 * @file
 * Section 4.2.4 (text) reproduction: traffic scaling via core count —
 * 32 cores on the same 4 channels (2-4x the per-channel traffic).
 *
 * Paper reference: MID system savings drop to 7.6-10.4% but the
 * performance bound still holds.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Sens. 32 cores",
                "traffic scaling: 32 cores on 4 channels (MID)", cfg);

    std::vector<SweepCase> cases;
    for (std::uint32_t cores : {16u, 32u}) {
        for (const MixSpec &mix : allMixes()) {
            if (mix.klass != "MID")
                continue;
            SystemConfig c = cfg;
            c.numCores = cores;
            c.mixName = mix.name;
            cases.push_back(SweepCase{std::move(c), "memscale"});
        }
    }
    std::vector<ComparisonResult> results = compareCases(eng, cases);

    Table t({"cores", "mix", "sys energy saved", "worst CPI increase"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const ComparisonResult &r = results[i];
        t.addRow({std::to_string(cases[i].cfg.numCores),
                  cases[i].cfg.mixName, pct(r.sysEnergySavings),
                  pct(r.worstCpiIncrease)});
    }
    t.print("32-core traffic scaling (paper: 7.6-10.4% savings at 32 "
            "cores, bound respected)");
    return 0;
}
