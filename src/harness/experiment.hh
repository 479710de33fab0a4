/**
 * @file
 * Experiment driver: baseline calibration (rest-of-system wattage per
 * paper Section 4.1), baseline-vs-policy comparisons, and the savings
 * metrics every figure reports.
 */

#ifndef MEMSCALE_HARNESS_EXPERIMENT_HH
#define MEMSCALE_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "harness/system.hh"

namespace memscale
{

class SweepEngine;

/** Baseline-relative outcome of one policy on one mix. */
struct ComparisonResult
{
    RunResult base;
    RunResult policy;
    double memEnergySavings = 0.0;   ///< 1 - E_mem/E_mem_base
    double sysEnergySavings = 0.0;   ///< 1 - E_sys/E_sys_base
    std::vector<double> cpiIncrease; ///< per core, fractional
    double avgCpiIncrease = 0.0;
    double worstCpiIncrease = 0.0;
};

/**
 * One System run of `cfg` under the named policy, exactly as
 * configured: no calibration, nothing patched in.  Every helper below
 * is this run plus pure arithmetic on its result, which is what lets a
 * SweepEngine memoise it (SweepEngine::simulate).
 */
RunResult simulate(const SystemConfig &cfg, const std::string &policy);

/**
 * `cfg` with its rest-of-system draw set: 0 for the baseline run that
 * calibrate() takes, the calibrated wattage for a policy run.
 */
SystemConfig withRestWatts(const SystemConfig &cfg, Watts rest_watts);

/**
 * Calibrate a baseline: `base` is the "baseline" policy's run of
 * withRestWatts(cfg, 0).  Returns it with the rest-of-system energy
 * patched in so the memory subsystem accounts for cfg.memPowerFraction
 * of server power (paper Section 4.1).
 * @param rest_out receives the calibrated wattage.
 */
RunResult calibrate(const SystemConfig &cfg, RunResult base,
                    Watts &rest_out);

/** Savings and CPI increases of `policy` against calibrated `base`. */
ComparisonResult compareRuns(const RunResult &base, RunResult policy);

/**
 * Run the reference (max-frequency, no-powerdown) configuration and
 * calibrate it: calibrate(cfg, simulate(withRestWatts(cfg, 0),
 * "baseline"), rest_out).
 */
RunResult runBaseline(const SystemConfig &cfg, Watts &rest_out);

/** Run one named policy with a known rest-of-system wattage. */
RunResult runPolicy(const SystemConfig &cfg, const std::string &policy,
                    Watts rest_watts);

/**
 * Run one policy as a chain of time shards: the run is cut at each
 * tick in `cuts` (ascending), a checkpoint is written to
 * `scratch_prefix`.shard<N>, and the next shard resumes from it.  The
 * final shard's RunResult is returned and is bit-identical to the
 * uninterrupted runPolicy() — the resume-equivalence property the
 * snapshot tests pin.  A workload that finishes before a cut ends
 * the chain there, and no checkpoint is written for that cut.
 */
RunResult runPolicySharded(const SystemConfig &cfg,
                           const std::string &policy, Watts rest_watts,
                           const std::vector<Tick> &cuts,
                           const std::string &scratch_prefix);

/**
 * Compare a policy against a precomputed calibrated baseline:
 * compareRuns(base, runPolicy(cfg, policy, rest_watts)).
 */
ComparisonResult compareWithBase(const SystemConfig &cfg,
                                 const RunResult &base,
                                 Watts rest_watts,
                                 const std::string &policy);

/** Baseline + policy in one call. */
ComparisonResult compare(const SystemConfig &cfg,
                         const std::string &policy);

/** Mean and spread of a metric over repeated seeds. */
struct SeededMetric
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Multi-seed comparison summary (workload-generation variance). */
struct AveragedComparison
{
    SeededMetric memEnergySavings;
    SeededMetric sysEnergySavings;
    SeededMetric worstCpiIncrease;
    std::size_t seeds = 0;
};

/**
 * Repeat compare() over `seeds` seeds derived via deriveSeed() (see
 * common/rng.hh) and summarize.  Useful for judging whether an effect
 * exceeds synthetic-workload noise.  Runs on its own sweep pool sized
 * by resolveJobs(); statistics are accumulated in seed order, so the
 * summary is identical for any thread count.
 */
AveragedComparison compareAveraged(const SystemConfig &cfg,
                                   const std::string &policy,
                                   std::size_t seeds);

/** As above, fanning the per-seed runs out on an existing engine. */
AveragedComparison compareAveraged(const SweepEngine &eng,
                                   const SystemConfig &cfg,
                                   const std::string &policy,
                                   std::size_t seeds);

} // namespace memscale

#endif // MEMSCALE_HARNESS_EXPERIMENT_HH
