/**
 * @file
 * Section 4.2.4 (text) reproduction: sensitivity to the OS quantum
 * (epoch) length and to the profiling-window length.
 *
 * Paper reference: MemScale is essentially insensitive to reasonable
 * values of both (epochs 1-10 ms, profiling 0.1-0.5 ms).  At the
 * benches' scaled time base, the equivalent sweep spans the same
 * epoch:runtime ratios.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Sens. epoch/profile",
                "sensitivity to epoch and profiling lengths (MID)",
                cfg);

    // Both sweeps (epoch at fixed profile:epoch ratio, profiling
    // window at fixed epoch) fan out as one batch.
    const std::vector<double> epochScales = {0.5, 1.0, 2.0};
    const std::vector<double> profScales = {1.0 / 3.0, 1.0, 5.0 / 3.0};
    const double base_epoch_ms = tickToMs(cfg.epochLen);
    const double base_profile_us = tickToUs(cfg.profileLen);

    std::vector<SystemConfig> cfgs;
    for (double scale : epochScales) {
        SystemConfig c = cfg;
        double epoch_ms = base_epoch_ms * scale;
        c.epochLen = msToTick(epoch_ms);
        c.profileLen = msToTick(epoch_ms * 0.06);
        cfgs.push_back(c);
    }
    for (double scale : profScales) {
        SystemConfig c = cfg;
        c.profileLen = usToTick(base_profile_us * scale);
        cfgs.push_back(c);
    }
    std::vector<MidSweepPoint> pts = runMidSweeps(eng, cfgs);

    Table t1({"epoch", "sys energy saved", "worst CPI increase"});
    for (std::size_t i = 0; i < epochScales.size(); ++i) {
        t1.addRow({fmt(base_epoch_ms * epochScales[i], 3) + " ms",
                   pct(pts[i].sysSavings),
                   pct(pts[i].worstCpiIncrease)});
    }
    t1.print("epoch-length sweep (paper analog: 1/5/10 ms)");

    Table t2({"profile window", "sys energy saved",
              "worst CPI increase"});
    for (std::size_t i = 0; i < profScales.size(); ++i) {
        const MidSweepPoint &pt = pts[epochScales.size() + i];
        t2.addRow({fmt(base_profile_us * profScales[i], 1) + " us",
                   pct(pt.sysSavings), pct(pt.worstCpiIncrease)});
    }
    t2.print("profiling-window sweep (paper analog: 0.1/0.3/0.5 ms)");

    std::printf("\npaper: essentially insensitive to both "
                "parameters.\n");
    return 0;
}
