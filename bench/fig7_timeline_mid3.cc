/**
 * @file
 * Figure 7 reproduction: MID3 timeline under MemScale — selected bus
 * frequency, per-application CPI, and scaled channel utilization per
 * epoch.  The apsi phase change mid-run must pull the frequency up
 * within one epoch of being observed.
 */

#include <map>

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    benchExportKeys(conf, cfg);
    SweepEngine eng = benchEngine(conf);
    cfg.mixName = "MID3";
    benchHeader(conf, "Figure 7",
                "MID3 timeline: frequency tracks the apsi phase change",
                cfg);

    CalibratedBaseline cal = runBaselines(eng, {cfg})[0];
    ComparisonResult r =
        compareWithBase(cfg, cal.base, cal.rest, "memscale");
    maybeExportObs(conf, r.policy);

    // Group cores by application (x4 instances each).
    std::map<std::string, std::vector<std::size_t>> by_app;
    for (std::size_t i = 0; i < r.policy.coreApp.size(); ++i)
        by_app[r.policy.coreApp[i]].push_back(i);

    std::vector<std::string> headers = {"t(ms)", "bus MHz", "util"};
    for (const auto &[app, _] : by_app)
        headers.push_back("CPI " + app);
    Table t(headers);

    std::uint32_t min_mhz = 800, max_mhz = 0;
    for (const EpochRecord &er : r.policy.timeline) {
        std::vector<std::string> row = {fmt(tickToMs(er.start)),
                                        std::to_string(er.busMHz),
                                        pct(er.channelUtil)};
        for (const auto &[app, cores] : by_app) {
            double cpi = 0.0;
            for (std::size_t c : cores)
                cpi += er.coreCpi[c];
            row.push_back(fmt(cpi / cores.size()));
        }
        t.addRow(row);
        min_mhz = std::min(min_mhz, er.busMHz);
        max_mhz = std::max(max_mhz, er.busMHz);
    }
    t.print("Fig. 7: MID3 per-epoch timeline");
    std::printf("\nfrequency range used: %u..%u MHz "
                "(paper: min early, raised at the apsi phase change)\n",
                min_mhz, max_mhz);
    std::printf("apsi worst CPI increase: %s (bound %s)\n",
                pct(r.worstCpiIncrease).c_str(), pct(cfg.gamma).c_str());
    return 0;
}
