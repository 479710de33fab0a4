/**
 * @file
 * Figure 2 reproduction: conventional (baseline) memory-subsystem
 * power breakdown — Background, Act/Pre, W/R, TERM, PLL/REG, MC —
 * averaged over the MEM, MID, and ILP classes, normalized to the MEM
 * average as in the paper.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 2", "baseline memory power breakdown by class",
                cfg);

    struct ClassAgg
    {
        EnergyBreakdown e;
        double sec = 0.0;
        int n = 0;
    };
    std::map<std::string, ClassAgg> agg;

    std::vector<SystemConfig> cfgs;
    for (const MixSpec &mix : allMixes()) {
        cfgs.push_back(cfg);
        cfgs.back().mixName = mix.name;
    }
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    std::size_t i = 0;
    for (const MixSpec &mix : allMixes()) {
        const RunResult &base = bases[i++].base;
        ClassAgg &a = agg[mix.klass];
        a.e += base.energy;
        a.sec += tickToSec(base.runtime);
        a.n += 1;
    }

    // Normalize to the MEM-class average memory power.
    double mem_avg_power =
        agg["MEM"].e.memorySubsystem() / agg["MEM"].sec;

    Table t({"class", "Background", "Act/Pre", "W/R", "TERM",
             "Refresh", "PLL/REG", "MC", "total (norm. to MEM)"});
    for (const char *klass : {"MEM", "MID", "ILP"}) {
        const ClassAgg &a = agg[klass];
        auto watts = [&](double joules_v) {
            return joules_v / a.sec / mem_avg_power;
        };
        t.addRow({std::string("AVG_") + klass,
                  pct(watts(a.e.background)), pct(watts(a.e.actPre)),
                  pct(watts(a.e.readWrite)),
                  pct(watts(a.e.termination)), pct(watts(a.e.refresh)),
                  pct(watts(a.e.pllReg)), pct(watts(a.e.mc)),
                  pct(watts(a.e.memorySubsystem()))});
    }
    t.print("Fig. 2: memory power breakdown (share of MEM-class avg "
            "memory power)");
    std::printf("\npaper shape: background largest for ILP/MID; "
                "act/pre + W/R significant only for MEM;\n"
                "PLL/REG and MC are significant everywhere.\n");
    return 0;
}
