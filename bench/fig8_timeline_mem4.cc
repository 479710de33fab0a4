/**
 * @file
 * Figure 8 reproduction: MEM4 on an 8-core system.  The ideal
 * frequency sits between two grid points, so MemScale oscillates
 * between neighbours, synthesizing a "virtual frequency".
 */

#include <map>
#include <set>

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    benchExportKeys(conf, cfg);
    SweepEngine eng = benchEngine(conf);
    cfg.mixName = "MEM4";
    cfg.numCores = 8;   // the paper uses an 8-core system here
    benchHeader(conf, "Figure 8",
                "MEM4 (8 cores): virtual-frequency oscillation", cfg);

    CalibratedBaseline cal = runBaselines(eng, {cfg})[0];
    ComparisonResult r =
        compareWithBase(cfg, cal.base, cal.rest, "memscale");
    maybeExportObs(conf, r.policy);

    std::map<std::string, std::vector<std::size_t>> by_app;
    for (std::size_t i = 0; i < r.policy.coreApp.size(); ++i)
        by_app[r.policy.coreApp[i]].push_back(i);

    std::vector<std::string> headers = {"t(ms)", "bus MHz", "util"};
    for (const auto &[app, _] : by_app)
        headers.push_back("CPI " + app);
    Table t(headers);

    std::set<std::uint32_t> used;
    std::uint64_t transitions = 0;
    std::uint32_t prev = 0;
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
        used.insert(er.busMHz);
        if (prev != 0 && er.busMHz != prev)
            ++transitions;
        prev = er.busMHz;
    }
    t.print("Fig. 8: MEM4 per-epoch timeline (8 cores)");

    std::string freqs;
    for (std::uint32_t f : used)
        freqs += std::to_string(f) + " ";
    std::printf("\nfrequencies visited: %s(paper: oscillation between "
                "two neighbours)\n", freqs.c_str());
    std::printf("epoch-to-epoch frequency changes: %llu of %zu epochs\n",
                static_cast<unsigned long long>(transitions),
                r.policy.timeline.size());
    return 0;
}
