/**
 * @file
 * Figure 13 reproduction: impact of the number of memory channels
 * (2, 3, 4) on MID-average savings.  Fewer channels ~ more traffic per
 * channel, approximating prefetching/out-of-order pressure.
 *
 * Paper reference: more channels -> more headroom -> larger savings;
 * even at 2 channels system savings stay around 14%.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 13", "sensitivity to channel count (MID)", cfg);

    const std::vector<std::uint32_t> channels = {4u, 3u, 2u};
    std::vector<SystemConfig> cfgs;
    for (std::uint32_t ch : channels) {
        cfgs.push_back(cfg);
        cfgs.back().mem.numChannels = ch;
    }
    std::vector<MidSweepPoint> pts = runMidSweeps(eng, cfgs);

    Table t({"channels", "sys energy saved", "mem energy saved",
             "worst CPI increase"});
    for (std::size_t i = 0; i < channels.size(); ++i) {
        const MidSweepPoint &pt = pts[i];
        t.addRow({std::to_string(channels[i]), pct(pt.sysSavings),
                  pct(pt.memSavings), pct(pt.worstCpiIncrease)});
    }
    t.print("Fig. 13: channel-count sensitivity (paper: savings grow "
            "with channels; ~14% even at 2)");
    return 0;
}
