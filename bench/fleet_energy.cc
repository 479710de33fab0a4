/**
 * @file
 * Fleet power-capping sweep: cap levels x fleet sizes, coordinated
 * FastCap vs. uncoordinated per-server MemScale.
 *
 * The datacenter form of the paper's question: a rack shares one PDU
 * budget, so per-server energy policies are not enough — someone has
 * to divide the budget.  For each fleet size the driver first probes
 * the uncoordinated fleet's natural draw, then sweeps rack caps
 * (fractions of that draw) and reports, per cap level:
 *
 *   - fleet energy and the peak coordination-epoch power,
 *   - epochs whose measured power violated the cap,
 *   - aggregate p99 SLO attainment (fraction of servers meeting the
 *     target), and Jain's fairness index over per-server slowdown.
 *
 * The acceptance shape: `fastcap` meets the budget every epoch, while
 * the cap-oblivious `memscale` fleet either violates the cap or (when
 * its own throttling happens to fit) gives up more tail latency.
 *
 * Fleet-specific flags on top of the usual bench keys:
 *   --fleets 2,4              fleet sizes to sweep
 *   --caps 0.99,0.97,0.95     cap levels, x the uncoordinated draw
 *   --rate 0.5                arrival intensity per server, M req/s
 *   --rate-scale 0.5,1.0,2.0  per-server rate multipliers (cycled)
 *   --arrival poisson|bursty|diurnal
 *   --horizon-ms N            fleet horizon (default 1)
 *   --coord-epoch-ms N        coordination epoch (default 0.2)
 *   --slo-p99-us N            p99 target (default 5)
 */

#include "bench_common.hh"

#include <limits>

#include "harness/cluster.hh"
#include "workload/openloop.hh"

using namespace memscale;

namespace
{

Watts
meanFleetW(const FleetResult &r)
{
    double s = 0.0;
    for (const FleetEpochRow &row : r.epochs)
        s += row.fleetW;
    return r.epochs.empty() ? 0.0
                            : s / static_cast<double>(r.epochs.size());
}

} // namespace

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);

    // A coordination epoch must contain a few policy epochs or the
    // per-server controller cannot settle onto its budget before the
    // next telemetry cut; re-read the epoch keys with serving-scale
    // defaults (user overrides still win).
    cfg.epochLen = msToTick(
        conf.getDouble("epoch_ms", 0.1, Config::Bound::NonNegative));
    cfg.profileLen = usToTick(
        conf.getDouble("profile_us", 10.0, Config::Bound::NonNegative));

    cfg.mixName = "OPENLOOP";
    cfg.numCores = static_cast<std::uint32_t>(conf.getInt("cores", 8));
    cfg.modelCpuPower = true;
    cfg.serving.enabled = true;
    cfg.serving.arrival.kind =
        parseArrivalKind(conf.getString("arrival", "poisson"));
    cfg.serving.arrival.ratePerSec =
        conf.getDouble("rate", 0.5) * 1e6;
    cfg.serving.horizon = msToTick(
        conf.getDouble("horizon-ms", 1.0, Config::Bound::NonNegative));
    cfg.serving.missesPerRequest = conf.getDouble("misses", 8.0);
    cfg.serving.sloP99Us = conf.getDouble("slo-p99-us", 5.0);

    ClusterConfig base;
    base.policy = "fastcap";
    base.coordEpoch = msToTick(conf.getDouble(
        "coord-epoch-ms", 0.2, Config::Bound::NonNegative));
    base.jobs = checkedJobs(conf.getInt("jobs", 0));
    base.rateScale = conf.getList<double>("rate-scale", "");
    base.weights = conf.getList<double>("weights", "");

    std::vector<std::uint32_t> fleets;
    for (std::int64_t f : conf.getList<std::int64_t>("fleets", "2,4")) {
        if (f < 1 || f > std::numeric_limits<std::uint32_t>::max())
            fatal("fleet size must be >= 1, got %lld",
                  static_cast<long long>(f));
        fleets.push_back(static_cast<std::uint32_t>(f));
    }
    const std::vector<double> caps =
        conf.getList<double>("caps", "0.99,0.97,0.95");

    benchHeader(conf, "fleet_energy",
                "rack power capping: coordinated FastCap vs "
                "uncoordinated MemScale",
                cfg);
    std::printf("(arrival=%s, %.2f Mreq/s/server, horizon=%.2f ms, "
                "coord-epoch=%.2f ms, slo-p99=%.0f us)\n",
                arrivalKindName(cfg.serving.arrival.kind),
                cfg.serving.arrival.ratePerSec / 1e6,
                tickToMs(cfg.serving.horizon),
                tickToMs(base.coordEpoch), cfg.serving.sloP99Us);

    // One rest-of-system calibration for the per-server template;
    // every fleet instantiates derived copies of it.
    Watts rest = 0.0;
    runBaseline(cfg, rest);
    cfg.restWatts = rest;
    base.server = cfg;

    Table t({"fleet", "cap W", "policy", "fleet J", "peak W", "viol",
             "slo", "jain"});
    for (std::uint32_t n : fleets) {
        ClusterConfig probe = base;
        probe.numServers = n;
        probe.capW = 0.0;
        probe.policy = "memscale";
        FleetResult uncoord = ClusterHarness(probe).run();
        const Watts draw = meanFleetW(uncoord);

        t.addRow({std::to_string(n), "-", "memscale",
                  fmt(uncoord.fleetEnergyJ, 3),
                  fmt(uncoord.peakEpochW, 1), "-",
                  pct(uncoord.sloAttainment), "-"});

        for (double frac : caps) {
            const Watts cap = frac * draw;
            for (const char *policy : {"fastcap", "memscale"}) {
                ClusterConfig cc = base;
                cc.numServers = n;
                cc.capW = cap;
                cc.policy = policy;
                FleetResult r = ClusterHarness(cc).run();
                t.addRow({std::to_string(n), fmt(cap, 1), policy,
                          fmt(r.fleetEnergyJ, 3),
                          fmt(r.peakEpochW, 1),
                          std::to_string(r.capViolations) + "/" +
                              std::to_string(r.epochs.size()),
                          pct(r.sloAttainment),
                          fmt(r.jainSlowdown, 3)});
            }
        }
    }
    t.print("Fleet energy vs. aggregate p99 attainment by cap level "
            "(viol = coordination epochs over the cap)");
    return 0;
}
