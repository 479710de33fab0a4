/**
 * @file
 * Open-loop serving sweep: energy vs. tail latency across arrival
 * intensities.
 *
 * Not a figure from the paper — MemScale evaluates closed-loop
 * SimPoint traces — but the datacenter question the paper motivates:
 * how much energy can memory DVFS save under real request traffic,
 * and what does it cost at the tail?  For each arrival rate the
 * driver calibrates a max-frequency baseline, then runs each policy
 * against it and reports energy next to p50/p99/p99.9 end-to-end
 * request latency.
 *
 * Serving-specific flags on top of the usual bench keys:
 *   --arrival poisson|bursty|diurnal   traffic shape (default poisson)
 *   --rates 1.0,2.0,4.0                arrival intensities, M req/s
 *   --slo-p99-us N                     p99 target handed to `slo`
 *   --horizon-ms N                     simulated horizon (default 2)
 *   --misses N                         mean LLC misses per request
 *   --policies a,b,c                   policies to compare
 */

#include "bench_common.hh"

#include "workload/openloop.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    benchExportKeys(conf, cfg);
    SweepEngine eng = benchEngine(conf);

    cfg.mixName = "OPENLOOP";
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind =
        parseArrivalKind(conf.getString("arrival", "poisson"));
    cfg.serving.arrival.seed = cfg.seed;
    cfg.serving.horizon = msToTick(
        conf.getDouble("horizon-ms", 2.0, Config::Bound::NonNegative));
    cfg.serving.missesPerRequest = conf.getDouble("misses", 8.0);
    cfg.serving.sloP99Us = conf.getDouble("slo-p99-us", 0.0);

    std::vector<double> rates =
        conf.getList<double>("rates", "0.5,1.0,2.0,4.0");
    for (double &r : rates)
        r *= 1e6;

    std::vector<std::string> policies = conf.getList<std::string>(
        "policies", "baseline,memscale,slo");

    benchHeader(conf, "serve_energy", "open-loop serving: energy vs tail",
                cfg);
    std::printf("(arrival=%s, horizon=%.2f ms, %.1f misses/req, "
                "slo-p99=%.0f us)\n",
                arrivalKindName(cfg.serving.arrival.kind),
                tickToMs(cfg.serving.horizon),
                cfg.serving.missesPerRequest, cfg.serving.sloP99Us);

    // One config per arrival intensity; each is calibrated against
    // its own max-frequency baseline run.
    std::vector<SystemConfig> cfgs;
    for (double rate : rates) {
        cfgs.push_back(cfg);
        cfgs.back().serving.arrival.ratePerSec = rate;
    }
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);

    // Baseline is in `bases`; run only the non-baseline policies.
    std::vector<std::string> extra;
    for (const std::string &p : policies)
        if (p != "baseline")
            extra.push_back(p);
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, extra);

    Table t({"Mreq/s", "policy", "sys J", "saved", "p50 us", "p99 us",
             "p99.9 us", "done", "drop"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const std::string mrate = fmt(rates[i] / 1e6, 2);
        auto row = [&](const std::string &name, const RunResult &r,
                       double saved) {
            const ServingStats &s = r.serving;
            t.addRow({mrate, name, fmt(r.energy.total(), 3),
                      pct(saved), fmt(s.p50Us), fmt(s.p99Us),
                      fmt(s.p999Us), std::to_string(s.completed),
                      std::to_string(s.dropped)});
        };
        row("baseline", bases[i].base, 0.0);
        for (std::size_t p = 0; p < extra.size(); ++p) {
            const ComparisonResult &r = results[p * cfgs.size() + i];
            row(extra[p], r.policy, r.sysEnergySavings);
        }
        maybeExportObs(conf, bases[i].base, "rate" + mrate);
    }
    t.print("Energy vs. tail latency by arrival intensity "
            "(p99.9 needs enough completions to be meaningful)");
    return 0;
}
