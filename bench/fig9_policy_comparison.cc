/**
 * @file
 * Figure 9 reproduction: full-system and memory energy savings of all
 * policies — Fast-PD, Slow-PD, Decoupled DIMMs, Static, MemScale,
 * MemScale(MemEnergy), MemScale+Fast-PD — averaged over the MID mixes.
 *
 * Paper reference: MemScale ~3x the system savings of Decoupled;
 * Slow-PD loses energy; Static between Decoupled and MemScale.
 */

#include "bench_common.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    if (int rc = maybeSelfCheck(conf, cfg); rc >= 0)
        return rc;
    SweepEngine eng = benchEngine(conf);
    benchHeader(conf, "Figure 9", "policy comparison, MID average", cfg);

    // Calibrated baselines per MID mix, shared across policies.
    std::vector<SystemConfig> cfgs = midConfigs(cfg);
    std::vector<CalibratedBaseline> bases = runBaselines(eng, cfgs);
    std::vector<ComparisonResult> results =
        comparePolicyGrid(eng, cfgs, bases, paperPolicies);

    Table t({"policy", "sys energy saved", "mem energy saved",
             "avg CPI incr", "worst CPI incr"});
    for (std::size_t p = 0; p < paperPolicies.size(); ++p) {
        double sys = 0.0, mem = 0.0, avg = 0.0, worst = 0.0;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const ComparisonResult &r = results[p * cfgs.size() + i];
            sys += r.sysEnergySavings;
            mem += r.memEnergySavings;
            avg += r.avgCpiIncrease;
            worst = std::max(worst, r.worstCpiIncrease);
        }
        double n = static_cast<double>(cfgs.size());
        t.addRow({paperPolicies[p], pct(sys / n), pct(mem / n),
                  pct(avg / n), pct(worst)});
    }
    t.print("Fig. 9: MID-average energy savings by policy "
            "(paper: MemScale ~3x Decoupled; Slow-PD negative)");
    return 0;
}
