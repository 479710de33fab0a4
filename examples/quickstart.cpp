/**
 * @file
 * Quickstart: run MemScale on one workload mix against the baseline
 * and print energy savings and performance impact.
 *
 * Usage: quickstart [mix=MID1] [budget=2000000] [gamma=0.10]
 *                   [epoch_ms=0.25] [profile_us=25]
 */

#include <cstdio>

#include "common/config.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    exitOnFatal();
    Config conf;
    conf.parseArgs(argc, argv);

    SystemConfig cfg;
    cfg.mixName = conf.getString("mix", "MID1");
    cfg.instrBudget =
        static_cast<std::uint64_t>(conf.getInt("budget", 2'000'000));
    cfg.gamma = conf.getDouble("gamma", 0.10);
    cfg.epochLen = msToTick(
        conf.getDouble("epoch_ms", 0.25, Config::Bound::NonNegative));
    cfg.profileLen = usToTick(
        conf.getDouble("profile_us", 25.0, Config::Bound::NonNegative));
    conf.refuseUnread();

    std::printf("MemScale quickstart: mix=%s budget=%llu gamma=%.0f%%\n",
                cfg.mixName.c_str(),
                static_cast<unsigned long long>(cfg.instrBudget),
                cfg.gamma * 100.0);

    ComparisonResult r = compare(cfg, "memscale");

    std::printf("\nbaseline : runtime %.2f ms, system %.2f W "
                "(memory %.2f W)\n",
                tickToMs(r.base.runtime), r.base.avgSystemPower,
                r.base.avgMemPower);
    std::printf("memscale : runtime %.2f ms, system %.2f W "
                "(memory %.2f W)\n",
                tickToMs(r.policy.runtime), r.policy.avgSystemPower,
                r.policy.avgMemPower);
    std::printf("\nmemory energy savings : %s\n",
                pct(r.memEnergySavings).c_str());
    std::printf("system energy savings : %s\n",
                pct(r.sysEnergySavings).c_str());
    std::printf("CPI increase          : avg %s, worst %s "
                "(bound %s)\n",
                pct(r.avgCpiIncrease).c_str(),
                pct(r.worstCpiIncrease).c_str(),
                pct(cfg.gamma).c_str());

    Table t({"epoch", "t_start(ms)", "bus MHz", "util", "worst CPI"});
    const auto &tl = r.policy.timeline;
    for (std::size_t i = 0; i < tl.size(); ++i) {
        double worst = 0.0;
        for (double c : tl[i].coreCpi)
            worst = std::max(worst, c);
        t.addRow({std::to_string(i), fmt(tickToMs(tl[i].start)),
                  std::to_string(tl[i].busMHz),
                  pct(tl[i].channelUtil), fmt(worst)});
    }
    t.print("per-epoch frequency decisions");
    return 0;
}
