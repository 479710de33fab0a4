/**
 * @file
 * Figure 12 reproduction: impact of the maximum allowed CPI
 * degradation (1%, 5%, 10%, 15%) on MID-average system energy savings
 * and worst-case CPI increase.
 *
 * Paper reference: savings grow from 1% to 10% bounds, then saturate —
 * beyond a point, running longer costs more system energy than the
 * memory saves, so the policy stops scaling down.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 12", "sensitivity to the CPI bound (MID)", cfg);

    const std::vector<double> bounds = {0.01, 0.05, 0.10, 0.15};
    std::vector<SystemConfig> cfgs;
    for (double bound : bounds) {
        cfgs.push_back(cfg);
        cfgs.back().gamma = bound;
    }
    std::vector<MidSweepPoint> pts = runMidSweeps(eng, cfgs);

    Table t({"bound", "sys energy saved", "mem energy saved",
             "worst CPI increase"});
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        const MidSweepPoint &pt = pts[i];
        t.addRow({pct(bounds[i], 0), pct(pt.sysSavings),
                  pct(pt.memSavings), pct(pt.worstCpiIncrease)});
    }
    t.print("Fig. 12: CPI-bound sensitivity (paper: savings saturate "
            "beyond 10%)");
    return 0;
}
