#include "harness/experiment.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "harness/sweep.hh"

namespace memscale
{

RunResult
simulate(const SystemConfig &cfg, const std::string &policy)
{
    auto p = makePolicy(policy);
    System sys(cfg, *p);
    return sys.run();
}

SystemConfig
withRestWatts(const SystemConfig &cfg, Watts rest_watts)
{
    SystemConfig out = cfg;
    out.restWatts = rest_watts;
    return out;
}

RunResult
calibrate(const SystemConfig &cfg, RunResult base, Watts &rest_out)
{
    // Memory subsystem = fraction of server power at the baseline
    // (paper Section 4.1, default 40%); the remainder is a fixed
    // rest-of-system draw.
    double frac = cfg.memPowerFraction;
    if (frac <= 0.0 || frac >= 1.0)
        fatal("memPowerFraction must be in (0,1), got %g", frac);
    rest_out = base.avgMemPower * (1.0 / frac - 1.0);
    if (cfg.modelCpuPower) {
        // Explicitly-modelled CPU power comes out of the fixed
        // rest-of-system draw so the server total is unchanged.
        double cpu_w = base.energy.cpu / tickToSec(base.runtime);
        rest_out = std::max(0.0, rest_out - cpu_w);
    }
    base.energy.rest = rest_out * tickToSec(base.runtime);
    base.avgSystemPower =
        base.energy.total() / tickToSec(base.runtime);
    return base;
}

ComparisonResult
compareRuns(const RunResult &base, RunResult policy)
{
    ComparisonResult out;
    out.base = base;
    out.policy = std::move(policy);

    double base_mem = base.energy.memorySubsystem();
    double base_sys = base.energy.total();
    if (base_mem > 0.0) {
        out.memEnergySavings =
            1.0 - out.policy.energy.memorySubsystem() / base_mem;
    }
    if (base_sys > 0.0) {
        out.sysEnergySavings =
            1.0 - out.policy.energy.total() / base_sys;
    }

    out.cpiIncrease.resize(base.coreCpi.size(), 0.0);
    for (std::size_t i = 0; i < base.coreCpi.size(); ++i) {
        if (base.coreCpi[i] > 0.0) {
            out.cpiIncrease[i] =
                out.policy.coreCpi[i] / base.coreCpi[i] - 1.0;
        }
    }
    double sum = 0.0;
    double worst = 0.0;
    for (double d : out.cpiIncrease) {
        sum += d;
        worst = std::max(worst, d);
    }
    out.avgCpiIncrease =
        out.cpiIncrease.empty()
            ? 0.0
            : sum / static_cast<double>(out.cpiIncrease.size());
    out.worstCpiIncrease = worst;
    return out;
}

RunResult
runBaseline(const SystemConfig &cfg, Watts &rest_out)
{
    return calibrate(cfg, simulate(withRestWatts(cfg, 0.0), "baseline"),
                     rest_out);
}

RunResult
runPolicy(const SystemConfig &cfg, const std::string &policy,
          Watts rest_watts)
{
    return simulate(withRestWatts(cfg, rest_watts), policy);
}

RunResult
runPolicySharded(const SystemConfig &cfg, const std::string &policy,
                 Watts rest_watts, const std::vector<Tick> &cuts,
                 const std::string &scratch_prefix)
{
    for (std::size_t i = 1; i < cuts.size(); ++i) {
        if (cuts[i] <= cuts[i - 1])
            fatal("runPolicySharded: cuts must be strictly "
                  "ascending");
    }
    SystemConfig scfg = withRestWatts(cfg, rest_watts);

    std::string resume_from;
    for (std::size_t shard = 0;; ++shard) {
        // A fresh policy per shard, exactly as separate processes
        // would have: everything a shard needs must come from the
        // snapshot, never from leftover in-memory policy state.
        auto p = makePolicy(policy);
        scfg.resumePath = resume_from;
        System sys(scfg, *p);
        if (shard == cuts.size() || !sys.advance(cuts[shard]))
            return sys.run();
        resume_from = scratch_prefix + ".shard" + std::to_string(shard);
        sys.checkpoint(resume_from);
    }
}

ComparisonResult
compareWithBase(const SystemConfig &cfg, const RunResult &base,
                Watts rest_watts, const std::string &policy)
{
    return compareRuns(base, runPolicy(cfg, policy, rest_watts));
}

ComparisonResult
compare(const SystemConfig &cfg, const std::string &policy)
{
    Watts rest = 0.0;
    RunResult base = runBaseline(cfg, rest);
    return compareWithBase(cfg, base, rest, policy);
}

AveragedComparison
compareAveraged(const SweepEngine &eng, const SystemConfig &cfg,
                const std::string &policy, std::size_t seeds)
{
    if (seeds == 0)
        fatal("compareAveraged: need at least one seed");
    std::vector<SweepCase> cases(seeds);
    for (std::size_t i = 0; i < seeds; ++i) {
        cases[i].cfg = cfg;
        cases[i].cfg.seed = deriveSeed(cfg.seed, i);
        cases[i].policy = policy;
    }
    std::vector<ComparisonResult> results = compareCases(eng, cases);
    // Accumulate in seed order (results are indexed by task), so the
    // summary is bit-identical no matter how many threads ran it.
    Accumulator mem, sys, worst;
    for (const ComparisonResult &r : results) {
        mem.add(r.memEnergySavings);
        sys.add(r.sysEnergySavings);
        worst.add(r.worstCpiIncrease);
    }
    auto summarize = [](const Accumulator &a) {
        return SeededMetric{a.mean(), a.stddev(), a.min(), a.max()};
    };
    AveragedComparison out;
    out.memEnergySavings = summarize(mem);
    out.sysEnergySavings = summarize(sys);
    out.worstCpiIncrease = summarize(worst);
    out.seeds = seeds;
    return out;
}

AveragedComparison
compareAveraged(const SystemConfig &cfg, const std::string &policy,
                std::size_t seeds)
{
    if (seeds == 0)
        fatal("compareAveraged: need at least one seed");
    SweepEngine eng;
    return compareAveraged(eng, cfg, policy, seeds);
}

} // namespace memscale
