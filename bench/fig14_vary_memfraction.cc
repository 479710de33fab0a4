/**
 * @file
 * Figure 14 reproduction: impact of the memory subsystem's share of
 * server power (30%, 40%, 50%) on MID-average savings.
 *
 * Paper reference: raising the share from 30% to 50% more than doubles
 * system savings (11% -> 24%), with CPI still inside the bound.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 14",
                "sensitivity to memory power fraction (MID)", cfg);

    const std::vector<double> fracs = {0.30, 0.40, 0.50};
    std::vector<SystemConfig> cfgs;
    for (double frac : fracs) {
        cfgs.push_back(cfg);
        cfgs.back().memPowerFraction = frac;
    }
    std::vector<MidSweepPoint> pts = runMidSweeps(eng, cfgs);

    Table t({"memory share", "sys energy saved", "mem energy saved",
             "worst CPI increase"});
    for (std::size_t i = 0; i < fracs.size(); ++i) {
        const MidSweepPoint &pt = pts[i];
        t.addRow({pct(fracs[i], 0), pct(pt.sysSavings),
                  pct(pt.memSavings), pct(pt.worstCpiIncrease)});
    }
    t.print("Fig. 14: memory-power-fraction sensitivity (paper: "
            "30%->50% roughly doubles savings)");
    return 0;
}
