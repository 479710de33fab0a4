/**
 * @file
 * Idle-ladder study: energy vs. exit-latency-induced tail latency.
 *
 * Deep idle states trade standby power for wake-up cost — every rung
 * down the ladder (fast-exit PD, slow-exit PD, self-refresh, SR with
 * slow clock, deep powerdown) cuts IDD but stretches the exit latency
 * a demand access must absorb.  This driver runs the open-loop
 * serving workload (so the tail is a real end-to-end request
 * percentile, not a CPI proxy) at a modest arrival rate where rank
 * idleness actually exists, and walks the ladder:
 *
 *   fastpd / srpd / deeppd    whole-rank static modes (every idle
 *                             rank drops straight to that rung)
 *   ladder                    adaptive demotion: idle-time thresholds
 *                             walk each rank down rung by rung
 *   ladder+consol             same, plus migration-based rank
 *                             consolidation: hot frames are remapped
 *                             onto `hot-ranks` ranks so the cold
 *                             remainder can sink into deep states
 *
 * Each row reports system energy, the request-latency tail
 * (p50/p99/p99.9), deep-state residency shares, demotion counts, and
 * frame swaps.  The acceptance check for consolidation is visible in
 * the last rows: deep residency (SR and below) must be > 0 for
 * ladder+consol, and higher than plain ladder.
 *
 * Flags on top of the usual bench keys:
 *   --rate M          arrival intensity, M req/s (default 0.25)
 *   --misses N        mean LLC misses per request (default 8)
 *   --horizon-ms N    simulated horizon (default 2)
 *   --hot-ranks N     consolidation target set size (default 1)
 *   --migrate-us N    consolidation pass period (default 50)
 */

#include "bench_common.hh"

#include "workload/openloop.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);

    cfg.mixName = "OPENLOOP";
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind =
        parseArrivalKind(conf.getString("arrival", "poisson"));
    cfg.serving.arrival.seed = cfg.seed;
    cfg.serving.arrival.ratePerSec =
        conf.getDouble("rate", 0.25) * 1e6;
    cfg.serving.horizon = msToTick(
        conf.getDouble("horizon-ms", 2.0, Config::Bound::NonNegative));
    cfg.serving.missesPerRequest = conf.getDouble("misses", 8.0);

    const std::uint32_t hot_ranks = static_cast<std::uint32_t>(
        conf.getInt("hot-ranks", 1, Config::Bound::Positive));
    const double migrate_us =
        conf.getDouble("migrate-us", 50.0, Config::Bound::Positive);

    benchHeader(conf, "idle_ladder_tail",
                "idle-state ladder: energy vs wake-up tail", cfg);
    std::printf("(rate=%.2f Mreq/s, %.1f misses/req, horizon=%.2f ms, "
                "hot-ranks=%u, migrate-every=%.0f us)\n",
                cfg.serving.arrival.ratePerSec / 1e6,
                cfg.serving.missesPerRequest,
                tickToMs(cfg.serving.horizon), hot_ranks, migrate_us);

    // One calibrated max-frequency baseline shared by every ladder
    // variant; the baseline config never enables migration, so its
    // energy/tail reflect the untouched machine.
    CalibratedBaseline cb = runBaselines(eng, {cfg})[0];

    struct LadderCase
    {
        const char *label;
        const char *policy;
        bool migrate;
    };
    const std::vector<LadderCase> cases = {
        {"fastpd", "fastpd", false},
        {"srpd", "srpd", false},
        {"deeppd", "deeppd", false},
        {"ladder", "ladder", false},
        {"ladder+consol", "ladder", true},
    };

    std::vector<ComparisonResult> results =
        eng.map<ComparisonResult>(cases.size(), [&](std::size_t i) {
            SystemConfig c = cfg;
            if (cases[i].migrate) {
                c.mem.ladder.migrate = true;
                c.mem.ladder.hotRanks = hot_ranks;
                c.mem.ladder.migrateInterval = usToTick(migrate_us);
            }
            return compareWithBase(c, cb.base, cb.rest,
                                   cases[i].policy);
        });

    Table t({"mode", "sys J", "saved", "p50 us", "p99 us", "p99.9 us",
             "PD", "SR", "SRslow", "deepPD", "demotions", "swaps"});
    auto share = [](Tick part, Tick whole) {
        return pct(whole ? static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0);
    };
    {
        const ServingStats &s = cb.base.serving;
        t.addRow({"baseline", fmt(cb.base.energy.total(), 3), pct(0.0),
                  fmt(s.p50Us), fmt(s.p99Us), fmt(s.p999Us),
                  share(0, 1), share(0, 1), share(0, 1), share(0, 1),
                  "0", "0"});
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const ComparisonResult &r = results[i];
        const McCounters &mc = r.policy.counters;
        const ServingStats &s = r.policy.serving;
        // rankSrTime already excludes the slow-clock share; the three
        // deep columns partition "CKE low below plain powerdown".
        Tick shallow_pd = mc.rankPrePdTime + mc.rankActPdTime -
                          mc.rankSrTime - mc.rankSrSlowTime -
                          mc.rankDeepPdTime;
        t.addRow({cases[i].label, fmt(r.policy.energy.total(), 3),
                  pct(r.sysEnergySavings), fmt(s.p50Us), fmt(s.p99Us),
                  fmt(s.p999Us), share(shallow_pd, mc.rankTime),
                  share(mc.rankSrTime, mc.rankTime),
                  share(mc.rankSrSlowTime, mc.rankTime),
                  share(mc.rankDeepPdTime, mc.rankTime),
                  std::to_string(mc.pdDemotions),
                  std::to_string(mc.migrations)});
    }
    t.print("Idle-ladder energy vs tail "
            "(residency shares of total rank-time)");

    const McCounters &consol =
        results.back().policy.counters;
    Tick deep = consol.rankSrTime + consol.rankSrSlowTime +
                consol.rankDeepPdTime;
    std::printf("\nconsolidation check: deep-state residency %s with "
                "%llu frame swaps — %s\n",
                pct(consol.rankTime
                        ? static_cast<double>(deep) /
                              static_cast<double>(consol.rankTime)
                        : 0.0)
                    .c_str(),
                static_cast<unsigned long long>(consol.migrations),
                deep > 0 ? "cold ranks reached the deep rungs"
                         : "NO deep residency (unexpected)");
    std::printf("expectation: each rung down saves standby energy but "
                "fattens the tail\n(p99.9 absorbs tXP -> tXS -> "
                "tXDP exits); consolidation recovers deep\nresidency "
                "at load by parking the cold ranks, at a bounded "
                "migration cost.\n");
    return 0;
}
