/**
 * @file
 * Ablation (DESIGN.md): row-buffer management and bank scheduling.
 * The paper adopts closed-page + FCFS, citing Sudan et al. that
 * closed-page suits multiprogrammed multi-cores, and argues scheduling
 * sophistication is orthogonal for 1-outstanding-miss cores.  This
 * bench quantifies both claims on our substrate: row-hit rates,
 * baseline performance, and MemScale savings under all four
 * combinations.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Ablation", "page policy x scheduler", cfg);

    struct Combo
    {
        const char *label;
        PagePolicy page;
        SchedulerPolicy sched;
    };
    const Combo combos[] = {
        {"closed+FCFS (paper)", PagePolicy::ClosedPage,
         SchedulerPolicy::Fcfs},
        {"closed+FR-FCFS", PagePolicy::ClosedPage,
         SchedulerPolicy::FrFcfs},
        {"open+FCFS", PagePolicy::OpenPage, SchedulerPolicy::Fcfs},
        {"open+FR-FCFS", PagePolicy::OpenPage,
         SchedulerPolicy::FrFcfs},
    };

    // Both tables come from one sweep.  The second is a placement
    // axis beyond the paper, rank-aware page migration: keep the
    // paper's closed+FCFS combo and compare MemScale-with-ladder
    // against the same policy plus hot/cold consolidation, which
    // remaps hot frames onto one rank per channel so the cold ranks
    // can sink into the deep idle states.  Its static cases share
    // their baselines with the closed+FCFS cases.
    const std::vector<const char *> mixnames = {"MID2", "MEM1"};
    std::vector<SweepCase> cases;
    for (const char *mixname : mixnames) {
        for (const Combo &combo : combos) {
            SystemConfig c = cfg;
            c.mixName = mixname;
            c.mem.pagePolicy = combo.page;
            c.mem.scheduler = combo.sched;
            cases.push_back(SweepCase{std::move(c), "memscale"});
        }
    }
    for (const char *mixname : mixnames) {
        for (int migrate = 0; migrate < 2; ++migrate) {
            SystemConfig c = cfg;
            c.mixName = mixname;
            c.mem.ladder.migrate = migrate != 0;
            cases.push_back(SweepCase{std::move(c), "memscale-ladder"});
        }
    }
    std::vector<ComparisonResult> results = compareCases(eng, cases);

    std::size_t idx = 0;
    for (const char *mixname : mixnames) {
        Table t({"configuration", "row-hit rate", "base CPI (avg)",
                 "sys energy saved", "worst CPI incr"});
        for (const Combo &combo : combos) {
            const ComparisonResult &r = results[idx++];
            double hits = r.base.counters.rowHitFraction();
            t.addRow({combo.label, pct(hits), fmt(r.base.avgCpi()),
                      pct(r.sysEnergySavings),
                      pct(r.worstCpiIncrease)});
        }
        t.print(std::string("page-policy/scheduler ablation, ") +
                mixname);
    }

    Table ct({"placement", "mix", "deep idle time", "swaps",
              "sys energy saved", "worst CPI incr"});
    for (const char *mixname : mixnames) {
        for (int migrate = 0; migrate < 2; ++migrate) {
            const ComparisonResult &r = results[idx++];
            const McCounters &mc = r.policy.counters;
            double deep_frac =
                mc.rankTime
                    ? static_cast<double>(mc.rankSrTime +
                                          mc.rankSrSlowTime +
                                          mc.rankDeepPdTime) /
                          static_cast<double>(mc.rankTime)
                    : 0.0;
            ct.addRow({migrate ? "consolidated" : "static", mixname,
                       pct(deep_frac),
                       std::to_string(mc.migrations),
                       pct(r.sysEnergySavings),
                       pct(r.worstCpiIncrease)});
        }
    }
    ct.print("page placement: rank consolidation under the idle "
             "ladder");
    std::printf("\nexpectation: closed-page competitive or better for "
                "these multiprogrammed mixes;\nFR-FCFS changes little "
                "with one outstanding miss per core (paper Section "
                "4.1);\nconsolidation trades bounded copy traffic for "
                "deep-state residency on cold ranks.\n");
    return 0;
}
