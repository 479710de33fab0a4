/**
 * @file
 * Figure 15 reproduction: impact of the power proportionality of the
 * MC and DIMM registers — idle power at 0%, 50%, 100% of peak — on
 * MID-average savings.
 *
 * Paper reference: *less* proportional components mean *more* scope
 * for MemScale (idle power scales with V/f too), rising to ~23%
 * system savings at 100% idle power.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 15",
                "sensitivity to MC/register power proportionality (MID)",
                cfg);

    const std::vector<double> props = {0.0, 0.5, 1.0};
    std::vector<SystemConfig> cfgs;
    for (double prop : props) {
        cfgs.push_back(cfg);
        cfgs.back().power.proportionality = prop;
    }
    std::vector<MidSweepPoint> pts = runMidSweeps(eng, cfgs);

    Table t({"idle power (of peak)", "sys energy saved",
             "mem energy saved", "worst CPI increase"});
    for (std::size_t i = 0; i < props.size(); ++i) {
        const MidSweepPoint &pt = pts[i];
        t.addRow({pct(props[i], 0), pct(pt.sysSavings),
                  pct(pt.memSavings), pct(pt.worstCpiIncrease)});
    }
    t.print("Fig. 15: proportionality sensitivity (paper: lower "
            "proportionality -> higher savings, ~23% at 100%)");
    return 0;
}
