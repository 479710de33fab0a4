/**
 * @file
 * Policy explorer: compare the energy-management policies makePolicy()
 * knows (coscale included) on one workload mix and print the
 * savings/performance frontier.  fastcap and slo are skipped, each
 * with its reason: their inputs (a power cap, a serving front end)
 * are not part of this closed-loop comparison.
 *
 * Usage: policy_explorer [mix=MID3] [budget=3000000] [gamma=0.10]
 *                        [channels=4] [cores=16] [jobs=N]
 *
 * The per-policy runs fan out on the shared sweep engine; results are
 * printed in table order regardless of completion order.
 */

#include <cstdio>
#include <utility>

#include "common/config.hh"
#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    exitOnFatal();
    Config conf;
    conf.parseArgs(argc, argv);

    SystemConfig cfg;
    cfg.mixName = conf.getString("mix", "MID3");
    cfg.instrBudget =
        static_cast<std::uint64_t>(conf.getInt("budget", 3'000'000));
    cfg.gamma = conf.getDouble("gamma", 0.10);
    cfg.epochLen = msToTick(
        conf.getDouble("epoch_ms", 0.25, Config::Bound::NonNegative));
    cfg.profileLen = usToTick(
        conf.getDouble("profile_us", 25.0, Config::Bound::NonNegative));
    cfg.numCores =
        static_cast<std::uint32_t>(conf.getInt("cores", 16));
    cfg.mem.numChannels =
        static_cast<std::uint32_t>(conf.getInt("channels", 4));
    // CPU power modelled explicitly so the coordinated-DVFS policy
    // (coscale) competes on equal accounting.
    cfg.modelCpuPower = true;
    SweepEngine eng(checkedJobs(conf.getInt("jobs", 0)));
    conf.refuseUnread();

    std::printf("Comparing all policies on %s (gamma=%.0f%%)\n",
                cfg.mixName.c_str(), cfg.gamma * 100.0);

    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    std::printf("baseline: %.2f ms, %.2f W system "
                "(rest-of-system calibrated to %.1f W)\n",
                tickToMs(base.runtime), base.avgSystemPower, rest);

    // Policies whose input this run does not provide; each would print
    // a row of zeros.
    const std::pair<const char *, const char *> skipped[] = {
        {"fastcap", "the explorer sets no power cap"},
        {"slo", "the explorer has no serving front end"},
    };
    std::vector<std::string> names;
    for (const std::string &name : allPolicyNames()) {
        bool skip = name == "baseline";
        for (const auto &[s, why] : skipped)
            skip |= name == s;
        if (!skip)
            names.push_back(name);
    }
    std::vector<ComparisonResult> results =
        eng.map<ComparisonResult>(names.size(), [&](std::size_t i) {
            return compareWithBase(cfg, base, rest, names[i]);
        });

    Table t({"policy", "sys saved", "mem saved", "avg CPI incr",
             "worst CPI incr", "runtime (ms)"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        const ComparisonResult &r = results[i];
        t.addRow({names[i], pct(r.sysEnergySavings),
                  pct(r.memEnergySavings), pct(r.avgCpiIncrease),
                  pct(r.worstCpiIncrease),
                  fmt(tickToMs(r.policy.runtime))});
    }
    t.print("policy frontier");
    for (const auto &[name, why] : skipped)
        std::printf("skipped %s: %s\n", name, why);
    return 0;
}
