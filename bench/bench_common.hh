/**
 * @file
 * Shared setup for the bench binaries that regenerate the paper's
 * tables and figures.
 *
 * The paper simulates 100M-instruction SimPoints per application with
 * 5 ms epochs.  The benches default to a proportionally scaled run
 * (5M instructions, 0.25 ms epochs, 25 us profiling) so the whole
 * evaluation regenerates in minutes on a laptop; pass budget=…,
 * epoch_ms=… etc. on the command line for full-scale runs.
 *
 * Keys come from argv only.  benchConfig() reads the keys every driver
 * accepts and refuses any MEMSCALE_* variable that is not one of the
 * environment switches (common/config.hh); benchHeader() then refuses
 * any key the driver did not read, so a misspelled key stops the run.
 *
 * Every driver fans its independent runs out on a SweepEngine sized
 * by `jobs=N` / `--jobs N`, else MEMSCALE_JOBS, else all hardware
 * threads.  Results are aggregated by task index, so the printed
 * tables are byte-identical for any job count.
 */

#ifndef MEMSCALE_BENCH_BENCH_COMMON_HH
#define MEMSCALE_BENCH_BENCH_COMMON_HH

#include <cstdio>

#include "common/config.hh"
#include "common/log.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "obs/trace_writer.hh"
#include "workload/mixes.hh"

namespace memscale
{

/**
 * Parse the command line into the drivers' common SystemConfig.  Every
 * driver calls this first, so it also calls exitOnFatal().  It reads
 * every key all drivers accept (the SystemConfig keys, `jobs` and
 * `observe`) into `conf`.
 */
inline SystemConfig
benchConfig(int argc, char **argv, Config &conf)
{
    exitOnFatal();
    refuseUnknownEnvSwitches();
    conf.parseArgs(argc, argv);
    SystemConfig cfg;
    cfg.instrBudget = static_cast<std::uint64_t>(
        conf.getInt("budget", 5'000'000));
    cfg.epochLen = msToTick(
        conf.getDouble("epoch_ms", 0.25, Config::Bound::NonNegative));
    cfg.profileLen = usToTick(
        conf.getDouble("profile_us", 25.0, Config::Bound::NonNegative));
    cfg.gamma = conf.getDouble("gamma", 0.10);
    cfg.numCores =
        static_cast<std::uint32_t>(conf.getInt("cores", 16));
    cfg.mem.numChannels =
        static_cast<std::uint32_t>(conf.getInt("channels", 4));
    cfg.memPowerFraction = conf.getDouble("memfrac", 0.40);
    cfg.power.proportionality = conf.getDouble("proportionality", 0.5);
    cfg.seed = static_cast<std::uint64_t>(conf.getInt("seed", 12345));
    // The recording path never changes simulation results.
    cfg.observe = conf.getBool("observe", false);
    checkedJobs(conf.getInt("jobs", 0));
    return cfg;
}

/**
 * Read `--stats-out` and `--trace-out` and turn observability on when
 * either is given.  Only the drivers that export with maybeExportObs()
 * (fig5, fig7, fig8 and serve_energy) call this, so benchHeader()
 * refuses the two keys everywhere else instead of writing nothing.
 * Both are read, not short-circuited, so any combination is accepted.
 */
inline void
benchExportKeys(const Config &conf, SystemConfig &cfg)
{
    const bool trace = conf.has("trace-out");
    const bool stats = conf.has("stats-out");
    cfg.observe = cfg.observe || trace || stats;
}

/** Insert `-label` before the extension: ("t.json", "MID3") -> "t-MID3.json". */
inline std::string
obsOutPath(std::string path, const std::string &label)
{
    if (label.empty())
        return path;
    auto slash = path.find_last_of('/');
    auto dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        dot = path.size();
    return path.substr(0, dot) + "-" + label + path.substr(dot);
}

/**
 * Export the run's recorded timeline per the `--stats-out` (CSV, or
 * JSON when the path ends in .json) and `--trace-out` (Chrome-trace /
 * Perfetto JSON) flags, which the driver read with benchExportKeys().
 * `label` distinguishes runs when a driver produces several (one file
 * per run).  No-op without the flags.
 */
inline void
maybeExportObs(const Config &conf, const RunResult &r,
               const std::string &label = "")
{
    const std::string stats = conf.getString("stats-out", "");
    const std::string trace = conf.getString("trace-out", "");
    if (stats.empty() && trace.empty())
        return;
    if (!r.obs || r.obs->epochs() == 0) {
        warn("%s/%s: no epoch timeline to export (static policy or "
             "observability off)",
             r.mixName.c_str(), r.policyName.c_str());
        return;
    }
    if (!stats.empty()) {
        std::string path = obsOutPath(stats, label);
        bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
        if (json ? r.obs->writeJson(path) : r.obs->writeCsv(path)) {
            std::fprintf(stderr, "stats: wrote %zu epochs x %zu "
                         "columns to %s\n",
                         r.obs->epochs(), r.obs->columns(),
                         path.c_str());
        }
    }
    if (!trace.empty()) {
        std::string path = obsOutPath(trace, label);
        if (writeChromeTrace(*r.obs, path)) {
            std::fprintf(stderr,
                         "trace: wrote %s (load in Perfetto / "
                         "chrome://tracing)\n",
                         path.c_str());
        }
    }
}

/** Sweep engine of jobs=N / --jobs N workers (0: resolveJobs()). */
inline SweepEngine
benchEngine(const Config &conf)
{
    return SweepEngine(checkedJobs(conf.getInt("jobs", 0)));
}

/**
 * The policies Figs. 9-11 compare against the max-frequency baseline,
 * in the order the figures print them.
 */
inline const std::vector<std::string> paperPolicies = {
    "fastpd", "slowpd", "decoupled", "static",
    "memscale-memenergy", "memscale", "memscale-fastpd"};

/** The configurations of all MID mixes under a base setting. */
inline std::vector<SystemConfig>
midConfigs(const SystemConfig &cfg)
{
    std::vector<SystemConfig> out;
    for (const MixSpec &mix : allMixes()) {
        if (mix.klass != "MID")
            continue;
        out.push_back(cfg);
        out.back().mixName = mix.name;
    }
    return out;
}

/** MID-average MemScale outcome for one sensitivity setting. */
struct MidSweepPoint
{
    double sysSavings = 0.0;
    double memSavings = 0.0;
    double avgCpiIncrease = 0.0;
    double worstCpiIncrease = 0.0;
};

/**
 * One MID sweep per base configuration, all flattened into a single
 * parallel batch (settings x MID mixes tasks); out[i] aggregates the
 * MID mixes of cfgs[i] in mix order.
 */
inline std::vector<MidSweepPoint>
runMidSweeps(const SweepEngine &eng,
             const std::vector<SystemConfig> &cfgs,
             const std::string &policy = "memscale")
{
    std::vector<SweepCase> cases;
    std::vector<std::size_t> setting;  // case index -> cfgs index
    for (std::size_t s = 0; s < cfgs.size(); ++s) {
        for (SystemConfig &c : midConfigs(cfgs[s])) {
            cases.push_back(SweepCase{std::move(c), policy});
            setting.push_back(s);
        }
    }
    std::vector<ComparisonResult> results = compareCases(eng, cases);

    std::vector<MidSweepPoint> out(cfgs.size());
    std::vector<int> n(cfgs.size(), 0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        MidSweepPoint &pt = out[setting[i]];
        const ComparisonResult &r = results[i];
        pt.sysSavings += r.sysEnergySavings;
        pt.memSavings += r.memEnergySavings;
        pt.avgCpiIncrease += r.avgCpiIncrease;
        pt.worstCpiIncrease =
            std::max(pt.worstCpiIncrease, r.worstCpiIncrease);
        ++n[setting[i]];
    }
    for (std::size_t s = 0; s < out.size(); ++s) {
        out[s].sysSavings /= n[s];
        out[s].memSavings /= n[s];
        out[s].avgCpiIncrease /= n[s];
    }
    return out;
}

inline MidSweepPoint
runMidSweep(const SweepEngine &eng, const SystemConfig &cfg,
            const std::string &policy = "memscale")
{
    return runMidSweeps(eng, {cfg}, policy)[0];
}

/**
 * Differential self-check mode (`--check` or `check=1`): instead of
 * regenerating the figure, run the driver's configuration under
 * memscale and fastpd through the sweep engine at jobs=1 and at jobs=N
 * (runSelfCheck), with the DDR3 protocol checker attached to every
 * run, and diff the results.  Every key but benchConfig()'s and
 * `check` is refused first.
 *
 * Returns the process exit code (0 = all identical) when the check
 * ran, or -1 when --check was not requested and the figure should be
 * produced as usual.
 */
inline int
maybeSelfCheck(const Config &conf, const SystemConfig &cfg)
{
    if (!conf.getBool("check", false))
        return -1;
    conf.refuseUnread();

    SystemConfig c = cfg;
    c.protocolCheck = true;
    unsigned jobs = checkedJobs(conf.getInt("jobs", 0));
    std::fprintf(stderr, "self-check: sweep jobs=1 vs jobs=%u on %s\n",
                 resolveJobs(jobs), c.mixName.c_str());
    std::size_t failures = runSelfCheck(c, jobs);
    std::fprintf(stderr, "self-check %s\n",
                 failures == 0 ? "PASSED" : "FAILED");
    return failures == 0 ? 0 : 1;
}

/**
 * Refuse every key the driver has not read (each driver reads all of
 * its keys before this; maybeExportObs()'s two are read by
 * benchConfig()), then print the figure's title and run settings.
 */
inline void
benchHeader(const Config &conf, const char *id, const char *what,
            const SystemConfig &cfg)
{
    conf.refuseUnread();
    std::printf("%s: %s\n", id, what);
    std::printf("(budget=%llu instr/app, epoch=%.2f ms, profile=%.0f "
                "us, gamma=%.0f%%, %u cores, %u channels)\n",
                static_cast<unsigned long long>(cfg.instrBudget),
                tickToMs(cfg.epochLen),
                tickToUs(cfg.profileLen), cfg.gamma * 100.0,
                cfg.numCores, cfg.mem.numChannels);
}

} // namespace memscale

#endif // MEMSCALE_BENCH_BENCH_COMMON_HH
