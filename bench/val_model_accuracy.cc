/**
 * @file
 * Validation: the policy's counter-driven performance model (Eqs. 2-9)
 * against ground truth.  Calibrate the model once from a nominal-
 * frequency run, predict the average CPI at every grid frequency, and
 * compare against actually running the whole memory subsystem
 * statically at that frequency.
 *
 * Paper claim (Section 3.3): the counter approximation "works well in
 * practice"; errors are small and the slack mechanism absorbs them.
 */

#include "bench_common.hh"
#include "memscale/perf_model.hh"
#include "memscale/policies/static_policy.hh"

using namespace memscale;

int
main(int argc, char **argv)
{
    Config conf;
    SystemConfig cfg = benchConfig(argc, argv, conf);
    SweepEngine eng = benchEngine(conf);
    cfg.mixName = "MID2";
    benchHeader(conf, "Validation", "perf-model predicted vs measured CPI",
                cfg);

    CalibratedBaseline cal = runBaselines(eng, {cfg})[0];
    const RunResult &base = cal.base;
    Watts rest = cal.rest;

    // Calibrate the model from whole-run counters of the baseline.
    // Cores finish at different times; scale each core's counts so
    // window/tic reproduces its true per-instruction time (the live
    // policy profiles all cores over one common window, where this is
    // automatic).
    ProfileData profile;
    profile.mc = base.counters;
    profile.windowLen = base.runtime;
    profile.freqDuring = nominalFreqIndex;
    const double cpu_hz = cfg.cpuGHz * 1e9;
    for (std::size_t i = 0; i < base.coreCpi.size(); ++i) {
        double done_sec = static_cast<double>(cfg.instrBudget) *
                          base.coreCpi[i] / cpu_hz;
        double scale = tickToSec(base.runtime) / done_sec;
        profile.cores.push_back(CoreSample{
            static_cast<std::uint64_t>(
                static_cast<double>(cfg.instrBudget) * scale),
            static_cast<std::uint64_t>(
                static_cast<double>(base.coreTlm[i]) * scale)});
    }
    PerfModel model(cfg.cpuGHz);
    model.calibrate(profile);

    // Ground truth: run the whole memory subsystem statically at each
    // grid frequency, all frequencies in parallel.
    std::vector<RunResult> truth = eng.map<RunResult>(
        numFreqPoints, [&](std::size_t f) {
            SystemConfig c = cfg;
            c.restWatts = rest;
            StaticPolicy policy("static", {.busMHz = busFreqGridMHz[f]});
            System sys(c, policy);
            return sys.run();
        });

    Table t({"bus MHz", "predicted CPI", "measured CPI", "error"});
    double worst_err = 0.0;
    for (FreqIndex f = 0; f < numFreqPoints; ++f) {
        double predicted = 0.0;
        for (std::uint32_t c = 0; c < cfg.numCores; ++c)
            predicted += model.cpi(c, f);
        predicted /= cfg.numCores;

        double measured = truth[f].avgCpi();
        double err = predicted / measured - 1.0;
        worst_err = std::max(worst_err, std::abs(err));
        t.addRow({std::to_string(busFreqGridMHz[f]), fmt(predicted, 3),
                  fmt(measured, 3), pct(err)});
    }
    t.print("Eq. 2-9 model vs static-frequency ground truth (MID2 "
            "average CPI)");
    std::printf("\nworst absolute error: %s (paper: counter model "
                "errors are small; slack absorbs them)\n",
                pct(worst_err).c_str());
    return 0;
}
