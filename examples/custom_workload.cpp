/**
 * @file
 * Defining a custom workload against the library API: a phased
 * "analytics" application (scan bursts between compute phases) mixed
 * with a latency-sensitive "frontend", run under MemScale with a tight
 * 5% degradation bound.
 *
 * Demonstrates: AppProfile construction, SystemConfig::customApps,
 * per-epoch timeline inspection.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace memscale;

namespace
{

AppProfile
analyticsApp()
{
    AppProfile app;
    app.name = "analytics";
    // Compute phase: light traffic; scan phase: streaming misses.
    // Phase lengths are in canonical 100M-instruction units and get
    // scaled to the run budget; keep them long enough that each phase
    // spans several OS epochs, or the policy will always trail the
    // workload by an epoch.
    app.phases.push_back(AppPhase{0.5, 0.05, 0.9, 0.5, 55'000'000});
    app.phases.push_back(AppPhase{12.0, 4.0, 0.8, 0.9, 45'000'000});
    app.loopPhases = true;
    app.footprintBytes = 256ull << 20;
    return app;
}

AppProfile
frontendApp()
{
    AppProfile app;
    app.name = "frontend";
    app.phases.push_back(AppPhase{1.2, 0.1, 1.1, 0.3, 0});
    app.footprintBytes = 64ull << 20;
    return app;
}

} // namespace

int
main(int argc, char **argv)
{
    exitOnFatal();
    Config conf;
    conf.parseArgs(argc, argv);

    SystemConfig cfg;
    cfg.mixName = "custom-analytics";
    cfg.customApps = {analyticsApp(), frontendApp()};
    cfg.instrBudget =
        static_cast<std::uint64_t>(conf.getInt("budget", 4'000'000));
    cfg.gamma = conf.getDouble("gamma", 0.05);
    cfg.epochLen = msToTick(
        conf.getDouble("epoch_ms", 0.25, Config::Bound::NonNegative));
    cfg.profileLen = usToTick(
        conf.getDouble("profile_us", 25.0, Config::Bound::NonNegative));
    conf.refuseUnread();

    std::printf("Custom workload: 8x analytics + 8x frontend, "
                "gamma=%.0f%%\n", cfg.gamma * 100.0);

    ComparisonResult r = compare(cfg, "memscale");

    std::printf("\nmemory energy savings : %s\n",
                pct(r.memEnergySavings).c_str());
    std::printf("system energy savings : %s\n",
                pct(r.sysEnergySavings).c_str());
    std::printf("CPI increase          : avg %s, worst %s\n",
                pct(r.avgCpiIncrease).c_str(),
                pct(r.worstCpiIncrease).c_str());

    Table t({"t(ms)", "bus MHz", "util"});
    for (const EpochRecord &er : r.policy.timeline) {
        t.addRow({fmt(tickToMs(er.start)),
                  std::to_string(er.busMHz), pct(er.channelUtil)});
    }
    t.print("frequency tracks the analytics scan phases");
    return 0;
}
