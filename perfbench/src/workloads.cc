#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>

#include "common/log.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "harness/cluster.hh"
#include "harness/differential.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "mem/controller.hh"
#include "sim/event_queue.hh"
#include "workload/mixes.hh"
#include "workload/trace_source.hh"

namespace perfbench
{

using namespace memscale;

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

namespace
{

using Params = std::vector<std::pair<std::string, std::string>>;

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The figure drivers' default scaled configuration. */
SystemConfig
scaledConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.instrBudget = 5'000'000;
    cfg.epochLen = msToTick(0.25);
    cfg.profileLen = usToTick(25.0);
    cfg.gamma = 0.10;
    cfg.numCores = 16;
    cfg.mem.numChannels = 4;
    cfg.memPowerFraction = 0.40;
    cfg.power.proportionality = 0.5;
    cfg.seed = seed;
    cfg.threads = 1;
    return cfg;
}

Params
configParams(const SystemConfig &cfg)
{
    Params p = {
        {"seed", std::to_string(cfg.seed)},
        {"mix", cfg.mixName},
        {"cores", std::to_string(cfg.numCores)},
        {"channels", std::to_string(cfg.mem.numChannels)},
        {"gamma", num(cfg.gamma)},
        {"epoch_ms", num(tickToMs(cfg.epochLen))},
        {"profile_us", num(tickToUs(cfg.profileLen))},
        {"memfrac", num(cfg.memPowerFraction)},
        {"proportionality", num(cfg.power.proportionality)},
    };
    if (cfg.serving.enabled) {
        const ServingOptions &s = cfg.serving;
        p.insert(p.end(),
                 {{"arrival", arrivalKindName(s.arrival.kind)},
                  {"rate_mreq_s", num(s.arrival.ratePerSec / 1e6)},
                  {"misses_per_req", num(s.missesPerRequest)},
                  {"horizon_ms", num(tickToMs(s.horizon))},
                  {"model_cpu_power", cfg.modelCpuPower ? "1" : "0"}});
    } else {
        p.emplace_back("instr_per_app", std::to_string(cfg.instrBudget));
    }
    return p;
}

std::uint64_t
reqsOf(const RunResult &r)
{
    return r.counters.reads + r.counters.writes;
}

/** Sums over every RunResult a pass got back from the library. */
class ResultTally
{
  public:
    void
    add(const RunResult &r)
    {
        const McCounters &c = r.counters;
        reads_ += c.reads;
        writes_ += c.writes;
        rowHits_ += c.rbhc;
        serviced_ += c.rbhc + c.obmc + c.cbmc;
        readLatNs_ += tickToNs(c.readLatencyTotal);
        migrations_ += c.migrations;
        pdExits_ += c.epdc;
        demotions_ += c.pdDemotions;
        freqTransitions_ += c.freqTransitions;
        relockUs_ += tickToUs(c.relockStallTime);
        if (r.serving.valid) {
            completed_ += r.serving.completed;
            dropped_ += r.serving.dropped;
            queuePeak_ = std::max(queuePeak_, r.serving.queuePeak);
        }
    }

    void
    add(const ComparisonResult &c)
    {
        add(c.base);
        add(c.policy);
    }

    void
    add(const FleetResult &f)
    {
        for (const RunResult &r : f.servers)
            add(r);
    }

    std::uint64_t dramReqs() const { return reads_ + writes_; }

    /** The exact model counts of the layer table. */
    void
    publish(std::map<std::string, double> &m) const
    {
        auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        m["mem.reads"] = d(reads_);
        m["mem.writes"] = d(writes_);
        m["mem.row_hit_frac"] = serviced_ ? d(rowHits_) / d(serviced_) : 0;
        m["mem.read_lat_ns"] = reads_ ? readLatNs_ / d(reads_) : 0.0;
        m["mem.migrations"] = d(migrations_);
        m["dram.pd_exits"] = d(pdExits_);
        m["dram.demotions"] = d(demotions_);
        m["dram.freq_transitions"] = d(freqTransitions_);
        m["dram.relock_stall_us"] = relockUs_;
        m["serving.completed"] = d(completed_);
        m["serving.dropped"] = d(dropped_);
        m["serving.queue_peak"] = d(queuePeak_);
    }

  private:
    std::uint64_t reads_ = 0, writes_ = 0, rowHits_ = 0, serviced_ = 0;
    double readLatNs_ = 0.0, relockUs_ = 0.0;
    std::uint64_t migrations_ = 0, pdExits_ = 0, demotions_ = 0;
    std::uint64_t freqTransitions_ = 0;
    std::uint64_t completed_ = 0, dropped_ = 0, queuePeak_ = 0;
};

/** Baseline runs whose result was already simulated in this pass. */
double
duplicateBaselines(const std::vector<const RunResult *> &bases)
{
    std::set<std::uint64_t> seen;
    double dup = 0.0;
    for (const RunResult *b : bases)
        dup += seen.insert(hashRunResult(*b)).second ? 0.0 : 1.0;
    return dup;
}

/// @name Output checks.
/// @{

/**
 * How far past gamma a closed-loop memscale run may slow a core.  The
 * slack controller picks each epoch's frequency from a prediction made
 * over the profiling window, so the bound holds only to within a small
 * margin; the repo's own tests allow the same gamma + 0.02.
 */
constexpr double slowdownTolerance = 0.02;

void
checkRun(const RunResult &r, const char *which, Op &op)
{
    if (r.hitTimeLimit)
        op.problems.push_back(std::string(which) +
                              ": hit the simulated-time limit");
    const ServingStats &s = r.serving;
    if (!s.valid)
        return;
    if (s.arrived !=
        s.completed + s.dropped + s.queuedAtEnd + s.inServiceAtEnd)
        op.problems.push_back(std::string(which) +
                              ": serving requests not conserved");
    if (s.histOverflow != 0)
        op.problems.push_back(std::string(which) + ": " +
                              std::to_string(s.histOverflow) +
                              " latency samples overflowed the histogram");
}

Op
comparisonOp(std::string name, const ComparisonResult &c,
             const SystemConfig &cfg, const std::string &policy)
{
    Op op;
    op.name = std::move(name);
    op.hash = hashComparison(c);
    checkRun(c.base, "baseline", op);
    checkRun(c.policy, "policy", op);
    if (!cfg.serving.enabled && policy == "memscale" &&
        c.worstCpiIncrease > cfg.gamma + slowdownTolerance)
        op.problems.push_back("worst slowdown " +
                              num(c.worstCpiIncrease) + " is above gamma " +
                              num(cfg.gamma) + " + " +
                              num(slowdownTolerance));
    return op;
}

Op
fleetOp(std::string name, const FleetResult &f, bool capped)
{
    Op op;
    op.name = std::move(name);
    op.hash = f.fleetHash;
    for (std::size_t k = 0; k < f.servers.size(); ++k) {
        const std::string which = "server" + std::to_string(k);
        checkRun(f.servers[k], which.c_str(), op);
    }
    if (capped) {
        for (const FleetEpochRow &row : f.epochs)
            if (row.allocFeasible && !row.capMet)
                op.problems.push_back(
                    "feasible epoch " + std::to_string(row.epoch) +
                    " drew " + num(row.fleetW) + " W over the cap");
    }
    return op;
}

/**
 * Run `f`, which produces the ops named in `names`; if it throws or
 * calls fatal(), record each of those ops as failed instead.
 */
template <typename F>
bool
attempt(PassReport &rep, const std::vector<std::string> &names, F &&f)
{
    std::string why;
    try {
        f();
        return true;
    } catch (const FatalError &e) {
        why = "fatal: " + e.message;
    } catch (const std::exception &e) {
        why = std::string("threw: ") + e.what();
    }
    for (const std::string &n : names)
        rep.ops.push_back(Op{n, 0, {why}});
    return false;
}
/// @}

/// @name The traced pass's view one level down.
/// @{

/**
 * Forwarding Policy decorator that records a span around every
 * callback the epoch machinery makes into the policy.
 */
class TimedPolicy final : public Policy
{
  public:
    explicit TimedPolicy(std::unique_ptr<Policy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    configure(MemoryController &mc, const PolicyContext &ctx) override
    {
        SpanScope s("memscale.configure", "memscale");
        inner_->configure(mc, ctx);
    }

    bool dynamic() const override { return inner_->dynamic(); }

    FreqIndex
    selectFrequency(const ProfileData &profile, const PolicyContext &ctx,
                    FreqIndex current) override
    {
        SpanScope s("memscale.select", "memscale");
        return inner_->selectFrequency(profile, ctx, current);
    }

    void
    endEpoch(const ProfileData &epoch, const PolicyContext &ctx) override
    {
        SpanScope s("memscale.end_epoch", "memscale");
        inner_->endEpoch(epoch, ctx);
    }

    double selectedCpuGHz() const override
    {
        return inner_->selectedCpuGHz();
    }

    PolicyDecision lastDecision() const override
    {
        return inner_->lastDecision();
    }

    void
    registerStats(StatRegistry &reg, const std::string &prefix) override
    {
        inner_->registerStats(reg, prefix);
    }

    void
    attachTailProbe(std::function<TailWindow()> probe) override
    {
        inner_->attachTailProbe(std::move(probe));
    }

    void saveState(SectionWriter &w) const override
    {
        inner_->saveState(w);
    }

    void restoreState(SectionReader &r) override { inner_->restoreState(r); }

  private:
    std::unique_ptr<Policy> inner_;
};

/** System built directly, with the decorated policy. */
RunResult
tracedSystemRun(const SystemConfig &cfg, const std::string &policy)
{
    RunScope run(newRunId());
    TimedPolicy p(makePolicy(policy));
    std::optional<System> sys;
    {
        SpanScope s("system.ctor", "system");
        sys.emplace(cfg, p);
    }
    SpanScope s("system.run", "system");
    RunResult r = sys->run();
    s.setWork(reqsOf(r), tickToUs(r.runtime));
    return r;
}

/** runBaseline(), one level down: same calibration, same bits. */
CalibratedBaseline
tracedBaseline(const SystemConfig &cfg)
{
    SpanScope span("experiment.baseline", "experiment");
    SystemConfig base_cfg = cfg;
    base_cfg.restWatts = 0.0;
    CalibratedBaseline out;
    out.base = tracedSystemRun(base_cfg, "baseline");
    RunResult &base = out.base;
    const double frac = cfg.memPowerFraction;
    if (frac <= 0.0 || frac >= 1.0)
        fatal("memPowerFraction must be in (0,1), got %g", frac);
    out.rest = base.avgMemPower * (1.0 / frac - 1.0);
    if (cfg.modelCpuPower) {
        double cpu_w = base.energy.cpu / tickToSec(base.runtime);
        out.rest = std::max(0.0, out.rest - cpu_w);
    }
    base.energy.rest = out.rest * tickToSec(base.runtime);
    base.avgSystemPower = base.energy.total() / tickToSec(base.runtime);
    return out;
}

/** compareWithBase(), one level down: same savings arithmetic. */
ComparisonResult
tracedCompareWithBase(const SystemConfig &cfg, const CalibratedBaseline &cb,
                      const std::string &policy)
{
    ComparisonResult out;
    out.base = cb.base;
    {
        SpanScope span("experiment.policy", "experiment");
        SystemConfig pcfg = cfg;
        pcfg.restWatts = cb.rest;
        out.policy = tracedSystemRun(pcfg, policy);
    }
    const RunResult &base = cb.base;
    double base_mem = base.energy.memorySubsystem();
    double base_sys = base.energy.total();
    if (base_mem > 0.0)
        out.memEnergySavings =
            1.0 - out.policy.energy.memorySubsystem() / base_mem;
    if (base_sys > 0.0)
        out.sysEnergySavings = 1.0 - out.policy.energy.total() / base_sys;
    out.cpiIncrease.resize(base.coreCpi.size(), 0.0);
    for (std::size_t i = 0; i < base.coreCpi.size(); ++i) {
        if (base.coreCpi[i] > 0.0)
            out.cpiIncrease[i] =
                out.policy.coreCpi[i] / base.coreCpi[i] - 1.0;
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

ComparisonResult
tracedCompare(const SystemConfig &cfg, const std::string &policy)
{
    return tracedCompareWithBase(cfg, tracedBaseline(cfg), policy);
}

/** SweepEngine::map with a span around the call and every task. */
template <typename T, typename F>
std::vector<T>
tracedMap(const SweepEngine &eng, std::size_t n, F &&fn)
{
    SpanScope map("sweep.map", "sweep");
    const std::uint32_t parent = map.id();
    return eng.map<T>(n, [&](std::size_t i) {
        SpanScope task("sweep.task", "sweep", parent);
        return fn(i);
    });
}
/// @}

// ---------------------------------------------------------------------
// paper_figs: the Fig. 5 and Fig. 9 sweeps, issued as their drivers do.

const std::vector<std::string> fig9Policies = {
    "fastpd", "slowpd", "decoupled", "static",
    "memscale-memenergy", "memscale", "memscale-fastpd"};

class PaperFigs final : public Workload
{
  public:
    explicit PaperFigs(std::uint64_t seed) : base_(scaledConfig(seed))
    {
        for (const MixSpec &mix : allMixes()) {
            fig5_.push_back(base_);
            fig5_.back().mixName = mix.name;
            if (mix.klass == "MID")
                fig9_.push_back(fig5_.back());
        }
    }

    unsigned jobs() const override { return 4; }

    Params
    params() const override
    {
        Params p = configParams(base_);
        p.erase(p.begin() + 1);  // the mix varies per task
        std::string pols;
        for (const std::string &s : fig9Policies)
            pols += (pols.empty() ? "" : ",") + s;
        p.insert(p.end(),
                 {{"fig5", "12 mixes x memscale (compareCases)"},
                  {"fig9", "4 MID mixes x 7 policies (runBaselines + "
                           "comparePolicyGrid)"},
                  {"fig9_policies", pols},
                  {"jobs", std::to_string(jobs())}});
        return p;
    }

    void
    timed(PassReport &rep) override
    {
        SweepEngine eng(jobs());
        std::vector<SweepCase> cases;
        for (const SystemConfig &c : fig5_)
            cases.push_back(SweepCase{c, "memscale"});
        Results res;
        rep.beginSim();
        res.ok5 = attempt(rep, fig5Names(), [&] {
            res.fig5 = compareCases(eng, cases);
        });
        res.ok9 = attempt(rep, fig9Names(), [&] {
            res.bases = runBaselines(eng, fig9_);
            res.grid = comparePolicyGrid(eng, fig9_, res.bases,
                                         fig9Policies);
        });
        rep.endSim();
        report(rep, res);
    }

    void
    traced(PassReport &rep) override
    {
        SweepEngine eng(jobs());
        const std::size_t n = fig9_.size();
        Results res;
        rep.beginSim();
        res.ok5 = attempt(rep, fig5Names(), [&] {
            res.fig5 = tracedMap<ComparisonResult>(
                eng, fig5_.size(), [&](std::size_t i) {
                    return tracedCompare(fig5_[i], "memscale");
                });
        });
        res.ok9 = attempt(rep, fig9Names(), [&] {
            res.bases = tracedMap<CalibratedBaseline>(
                eng, n, [&](std::size_t i) {
                    return tracedBaseline(fig9_[i]);
                });
            res.grid = tracedMap<ComparisonResult>(
                eng, fig9Policies.size() * n, [&](std::size_t t) {
                    return tracedCompareWithBase(
                        fig9_[t % n], res.bases[t % n],
                        fig9Policies[t / n]);
                });
        });
        rep.endSim();
        ResultTally tally = report(rep, res);
        tally.publish(rep.layers);
        std::vector<const RunResult *> bases;
        for (const ComparisonResult &c : res.fig5)
            bases.push_back(&c.base);
        for (const CalibratedBaseline &b : res.bases)
            bases.push_back(&b.base);
        rep.layers["experiment.baseline_dup"] = duplicateBaselines(bases);
    }

  private:
    struct Results
    {
        bool ok5 = false, ok9 = false;
        std::vector<ComparisonResult> fig5;
        std::vector<CalibratedBaseline> bases;
        std::vector<ComparisonResult> grid;
    };

    std::vector<std::string>
    fig5Names() const
    {
        std::vector<std::string> out;
        for (const SystemConfig &c : fig5_)
            out.push_back("fig5/" + c.mixName + "/memscale");
        return out;
    }

    std::vector<std::string>
    fig9Names() const
    {
        std::vector<std::string> out;
        for (const std::string &p : fig9Policies)
            for (const SystemConfig &c : fig9_)
                out.push_back("fig9/" + c.mixName + "/" + p);
        return out;
    }

    ResultTally
    report(PassReport &rep, const Results &res) const
    {
        ResultTally tally;
        double saved_sum = 0.0, saved_min = 1.0, saved_max = -1.0;
        double worst = 0.0;
        if (res.ok5) {
            const std::vector<std::string> names = fig5Names();
            for (std::size_t i = 0; i < res.fig5.size(); ++i) {
                const ComparisonResult &c = res.fig5[i];
                rep.ops.push_back(
                    comparisonOp(names[i], c, fig5_[i], "memscale"));
                tally.add(c);
                saved_sum += c.sysEnergySavings;
                saved_min = std::min(saved_min, c.sysEnergySavings);
                saved_max = std::max(saved_max, c.sysEnergySavings);
                worst = std::max(worst, c.worstCpiIncrease);
            }
            rep.model["sys_saved"] =
                saved_sum / static_cast<double>(res.fig5.size());
            rep.model["sys_saved.min"] = saved_min;
            rep.model["sys_saved.max"] = saved_max;
        }
        if (res.ok9) {
            const std::vector<std::string> names = fig9Names();
            for (const CalibratedBaseline &b : res.bases)
                tally.add(b.base);
            for (std::size_t t = 0; t < res.grid.size(); ++t) {
                const ComparisonResult &c = res.grid[t];
                const std::string &pol = fig9Policies[t / fig9_.size()];
                rep.ops.push_back(comparisonOp(
                    names[t], c, fig9_[t % fig9_.size()], pol));
                tally.add(c);
                if (pol == "memscale")
                    worst = std::max(worst, c.worstCpiIncrease);
            }
        }
        rep.model["worst_slowdown"] = worst;
        rep.dramReqs = tally.dramReqs();
        return tally;
    }

    SystemConfig base_;
    std::vector<SystemConfig> fig5_;
    std::vector<SystemConfig> fig9_;
};

// ---------------------------------------------------------------------
// mid3_paper: one paper-scale MID3 comparison on one thread.

class Mid3Paper final : public Workload
{
  public:
    explicit Mid3Paper(std::uint64_t seed) : cfg_(scaledConfig(seed))
    {
        cfg_.mixName = "MID3";
        cfg_.instrBudget = 100'000'000;
        cfg_.epochLen = msToTick(5.0);
        cfg_.profileLen = usToTick(300.0);
    }

    unsigned jobs() const override { return 1; }

    Params
    params() const override
    {
        Params p = configParams(cfg_);
        p.insert(p.end(), {{"policy", "memscale"},
                           {"jobs", std::to_string(jobs())}});
        return p;
    }

    void
    timed(PassReport &rep) override
    {
        SweepEngine eng(jobs());
        std::vector<ComparisonResult> res;
        rep.beginSim();
        const bool ok = attempt(rep, {opName()}, [&] {
            res = compareCases(eng, {SweepCase{cfg_, "memscale"}});
        });
        rep.endSim();
        if (ok)
            report(rep, res[0]);
    }

    void
    traced(PassReport &rep) override
    {
        SweepEngine eng(jobs());
        std::vector<ComparisonResult> res;
        rep.beginSim();
        const bool ok = attempt(rep, {opName()}, [&] {
            res = tracedMap<ComparisonResult>(eng, 1, [&](std::size_t) {
                return tracedCompare(cfg_, "memscale");
            });
        });
        rep.endSim();
        if (!ok)
            return;
        report(rep, res[0]).publish(rep.layers);
        rep.layers["experiment.baseline_dup"] = 0.0;
    }

    void
    probes(PassReport &rep) override
    {
        const double gen_ns = probeGeneration();
        const double replay_ns = probeReplay();
        rep.layers["workload.gen_ns_per_miss"] = gen_ns;
        rep.layers["mem.replay_ns_per_req"] = replay_ns;
        rep.layers["system.overhead_ns_per_req"] =
            baselineNsPerReq(tracer().spans()) - replay_ns;
    }

  private:
    std::string opName() const { return "mid3/MID3/memscale"; }

    ResultTally
    report(PassReport &rep, const ComparisonResult &c) const
    {
        ResultTally tally;
        rep.ops.push_back(comparisonOp(opName(), c, cfg_, "memscale"));
        tally.add(c);
        rep.model["sys_saved"] = c.sysEnergySavings;
        rep.model["worst_slowdown"] = c.worstCpiIncrease;
        rep.dramReqs = tally.dramReqs();
        return tally;
    }

    /** system.host_ns_per_req over the baseline's System runs only. */
    static double
    baselineNsPerReq(const std::vector<Span> &spans)
    {
        std::set<std::uint32_t> keep;
        for (const Span &s : spans)
            if (std::string_view(s.name) == "experiment.baseline")
                keep.insert(s.id);
        std::vector<Span> sub;
        // Spans close child-first but ids are assigned parent-first,
        // so one ordered sweep collects every descendant.
        for (const Span &s : spans) {
            if (keep.count(s.parent)) {
                keep.insert(s.id);
                sub.push_back(s);
            }
        }
        return layerMetrics(sub, 1)["system.host_ns_per_req"];
    }

    /** The trace sources System builds for the mix, same seeds. */
    struct Sources
    {
        std::vector<AppProfile> profiles;
        std::vector<std::unique_ptr<SyntheticTraceSource>> src;
    };

    Sources
    makeSources() const
    {
        Sources s;
        const double scale = static_cast<double>(cfg_.instrBudget) /
                             static_cast<double>(canonicalBudget);
        const std::uint64_t region =
            cfg_.mem.totalBytes() / cfg_.numCores;
        const MixSpec &mix = mixByName(cfg_.mixName);
        s.profiles.reserve(cfg_.numCores);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
            s.profiles.push_back(
                scaledProfile(appForCore(mix, i), scale));
        Rng seeder(cfg_.seed);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
            s.src.push_back(std::make_unique<SyntheticTraceSource>(
                s.profiles[i], static_cast<Addr>(i) * region,
                cfg_.mem.lineBytes, seeder.next()));
        return s;
    }

    /** workload: host ns per generated LLC miss, up to the budget. */
    double
    probeGeneration() const
    {
        Sources s = makeSources();
        std::uint64_t misses = 0;
        TraceChunk chunk;
        const std::int64_t t0 = nowNs();
        for (auto &src : s.src) {
            while (src->generated() < cfg_.instrBudget && src->next(chunk))
                ++misses;
        }
        const std::int64_t t1 = nowNs();
        return misses ? static_cast<double>(t1 - t0) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    /**
     * mem: host ns per DRAM request with only cores, the event queue
     * and the memory controller at nominal frequency (no policy,
     * epoch or power layer).
     */
    double
    probeReplay() const
    {
        Sources s = makeSources();
        const std::int64_t t0 = nowNs();
        EventQueue eq;
        MemoryController mc(eq, cfg_.mem);
        mc.startRefresh();
        CoreParams cp;
        cp.cpuGHz = cfg_.cpuGHz;
        cp.instrBudget = cfg_.instrBudget;
        cp.runPastBudget = false;
        std::vector<std::unique_ptr<Core>> cores;
        std::uint32_t done = 0;
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
            cores.push_back(
                std::make_unique<Core>(eq, i, *s.src[i], mc, cp));
        for (auto &c : cores) {
            c->setOnDone([&] {
                if (++done == cores.size())
                    eq.stop();
            });
            c->start();
        }
        eq.runUntil(cfg_.maxSimTime);
        const McCounters c = mc.sampleCounters();
        const std::int64_t t1 = nowNs();
        const std::uint64_t reqs = c.reads + c.writes;
        return reqs ? static_cast<double>(t1 - t0) /
                          static_cast<double>(reqs)
                    : 0.0;
    }

    SystemConfig cfg_;
};

// ---------------------------------------------------------------------
// serve_ladder: one lightly loaded open-loop server under
// memscale-ladder with rank consolidation, vs. its baseline.

class ServeLadder final : public Workload
{
  public:
    explicit ServeLadder(std::uint64_t seed) : cfg_(scaledConfig(seed))
    {
        cfg_.mixName = "OPENLOOP";
        cfg_.serving.enabled = true;
        cfg_.serving.arrival.kind = ArrivalKind::Poisson;
        cfg_.serving.arrival.seed = seed;
        cfg_.serving.arrival.ratePerSec = 0.25e6;
        // Ten times idle_ladder_tail's horizon: ~5000 requests per run
        // keep seed-to-seed variation in the work small.
        cfg_.serving.horizon = msToTick(20.0);
        cfg_.serving.missesPerRequest = 8.0;
        // The baseline keeps the untouched machine; only the policy
        // run consolidates ranks.
        consol_ = cfg_;
        consol_.mem.ladder.migrate = true;
        consol_.mem.ladder.hotRanks = 1;
        consol_.mem.ladder.migrateInterval = usToTick(50.0);
    }

    unsigned jobs() const override { return 1; }

    Params
    params() const override
    {
        Params p = configParams(cfg_);
        p.insert(p.end(),
                 {{"policy", policy},
                  {"hot_ranks", std::to_string(consol_.mem.ladder.hotRanks)},
                  {"migrate_us",
                   num(tickToUs(consol_.mem.ladder.migrateInterval))},
                  {"jobs", std::to_string(jobs())}});
        return p;
    }

    void
    timed(PassReport &rep) override
    {
        SweepEngine eng(jobs());
        CalibratedBaseline cb;
        ComparisonResult res;
        rep.beginSim();
        const bool ok = attempt(rep, {opName()}, [&] {
            cb = runBaselines(eng, {cfg_})[0];
            res = compareWithBase(consol_, cb.base, cb.rest, policy);
        });
        rep.endSim();
        if (ok)
            report(rep, cb, res);
    }

    void
    traced(PassReport &rep) override
    {
        SweepEngine eng(jobs());
        CalibratedBaseline cb;
        ComparisonResult res;
        rep.beginSim();
        const bool ok = attempt(rep, {opName()}, [&] {
            cb = tracedMap<CalibratedBaseline>(
                eng, 1, [&](std::size_t) { return tracedBaseline(cfg_); })[0];
            res = tracedCompareWithBase(consol_, cb, policy);
        });
        rep.endSim();
        if (!ok)
            return;
        report(rep, cb, res).publish(rep.layers);
        rep.layers["experiment.baseline_dup"] = 0.0;
    }

  private:
    static constexpr const char *policy = "memscale-ladder";

    std::string opName() const
    {
        return "serve/OPENLOOP/memscale-ladder+consol";
    }

    ResultTally
    report(PassReport &rep, const CalibratedBaseline &cb,
           const ComparisonResult &c) const
    {
        ResultTally tally;
        rep.ops.push_back(comparisonOp(opName(), c, consol_, policy));
        tally.add(cb.base);
        tally.add(c);
        rep.model["sys_saved"] = c.sysEnergySavings;
        rep.model["p99_us"] = c.policy.serving.p99Us;
        rep.dramReqs = tally.dramReqs();
        return tally;
    }

    SystemConfig cfg_;
    SystemConfig consol_;
};

// ---------------------------------------------------------------------
// fleet16_cap: fleet_energy at 16 servers, uncoordinated memscale
// then fastcap capped at 0.97x its draw.

class Fleet16Cap final : public Workload
{
  public:
    Fleet16Cap(std::uint64_t seed, std::string scratch)
        : server_(scaledConfig(seed)), scratch_(std::move(scratch))
    {
        server_.epochLen = msToTick(0.1);
        server_.profileLen = usToTick(10.0);
        server_.mixName = "OPENLOOP";
        server_.numCores = 8;
        server_.modelCpuPower = true;
        server_.serving.enabled = true;
        server_.serving.arrival.kind = ArrivalKind::Poisson;
        server_.serving.arrival.ratePerSec = 0.5e6;
        // 50 coordination epochs: each server cuts and restores a
        // ~80 KB snapshot 49 times (~64 MB of chain per fleet run).
        server_.serving.horizon = msToTick(10.0);
        server_.serving.missesPerRequest = 8.0;
        server_.serving.sloP99Us = 5.0;
        fleet_.numServers = 16;
        fleet_.coordEpoch = msToTick(0.2);
        fleet_.scratchDir = scratch_;
        fleet_.jobs = jobs();
    }

    unsigned jobs() const override { return 4; }

    Params
    params() const override
    {
        Params p = configParams(server_);
        p.insert(p.end(),
                 {{"servers", std::to_string(fleet_.numServers)},
                  {"coord_epoch_ms", num(tickToMs(fleet_.coordEpoch))},
                  {"slo_p99_us", num(server_.serving.sloP99Us)},
                  {"cap_frac", num(capFrac)},
                  {"policies", "memscale (uncapped), fastcap (capped)"},
                  {"jobs", std::to_string(jobs())}});
        return p;
    }

    void
    timed(PassReport &rep) override
    {
        Results res;
        rep.beginSim();
        res.ok = attempt(rep, opNames(), [&] {
            SystemConfig cal = server_;
            res.calib = runBaseline(cal, res.rest);
            ClusterConfig cc = clusterConfig(res.rest, "memscale", 0.0);
            res.uncoord = timedCtor(rep, cc).run();
            cc = clusterConfig(res.rest, "fastcap",
                               capFrac * meanFleetW(res.uncoord));
            res.capped = timedCtor(rep, cc).run();
        });
        rep.endSim();
        emptyScratch();
        report(rep, res);
    }

    void
    traced(PassReport &rep) override
    {
        Results res;
        double cpu = 0.0, cuts = 0.0;
        auto run = [&](const ClusterConfig &cc) {
            std::optional<ClusterHarness> h;
            {
                SpanScope s("cluster.ctor", "cluster");
                h.emplace(cc);
            }
            SpanScope s("cluster.run", "cluster");
            const double c0 = processCpuS();
            FleetResult r = h->run();
            cpu += (processCpuS() - c0) * 1e3;
            s.setWork(r.epochs.size() * cc.numServers);
            cuts += static_cast<double>(
                (r.epochs.size() - 1) * cc.numServers);
            return r;
        };
        rep.beginSim();
        res.ok = attempt(rep, opNames(), [&] {
            CalibratedBaseline cb = tracedBaseline(server_);
            res.calib = cb.base;
            res.rest = cb.rest;
            res.uncoord = run(clusterConfig(res.rest, "memscale", 0.0));
            res.capped = run(clusterConfig(
                res.rest, "fastcap", capFrac * meanFleetW(res.uncoord)));
        });
        rep.endSim();
        emptyScratch();
        if (!res.ok)
            return;
        report(rep, res).publish(rep.layers);
        rep.layers["experiment.baseline_dup"] = 0.0;
        rep.layers["snapshot.cuts"] = cuts;
        fleetCpuMs_ = cpu;
        probeCfg_ = ClusterHarness(clusterConfig(res.rest, "fastcap", 0.0))
                        .serverConfig(0);
    }

    /**
     * snapshot: server 0 of the fleet as one checkpoint chain cut at
     * every coordination boundary vs. one uninterrupted run.
     */
    void
    probes(PassReport &rep) override
    {
        if (fleetCpuMs_ <= 0.0)
            return;
        std::vector<Tick> cuts;
        for (Tick t = fleet_.coordEpoch; t < server_.serving.horizon;
             t += fleet_.coordEpoch)
            cuts.push_back(t);
        const std::string prefix = scratch_ + "/probe";
        std::vector<double> plain_ms, sharded_ms;
        double bytes = 0.0;
        Op op{"probe/snapshot-chain-vs-run", 0, {}};
        for (int rep_i = 0; rep_i < probeReps; ++rep_i) {
            std::int64_t t0 = nowNs();
            const RunResult plain =
                runPolicy(probeCfg_, "fastcap", probeCfg_.restWatts);
            std::int64_t t1 = nowNs();
            const RunResult chain = runPolicySharded(
                probeCfg_, "fastcap", probeCfg_.restWatts, cuts, prefix);
            std::int64_t t2 = nowNs();
            plain_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            sharded_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
            op.hash = hashRunResult(chain);
            if (op.hash != hashRunResult(plain) && op.problems.empty())
                op.problems.push_back("sharded chain hash " + hex(op.hash) +
                                      " != uninterrupted " +
                                      hex(hashRunResult(plain)));
            bytes = 0.0;
            for (std::size_t i = 0; i < cuts.size(); ++i) {
                std::error_code ec;
                const auto size = std::filesystem::file_size(
                    prefix + ".shard" + std::to_string(i), ec);
                bytes += ec ? 0.0 : static_cast<double>(size);
            }
            emptyScratch();
        }
        rep.ops.push_back(op);
        const double cut_ms =
            (percentile(sharded_ms, 0.5) - percentile(plain_ms, 0.5)) /
            static_cast<double>(cuts.size());
        rep.layers["snapshot.cut_ms"] = cut_ms;
        rep.layers["snapshot.bytes_per_cut"] =
            bytes / static_cast<double>(cuts.size());
        rep.layers["snapshot.fleet_share"] =
            cut_ms * rep.layers["snapshot.cuts"] / fleetCpuMs_;
    }

  private:
    static constexpr double capFrac = 0.97;
    static constexpr int probeReps = 9;

    struct Results
    {
        bool ok = false;
        RunResult calib;
        Watts rest = 0.0;
        FleetResult uncoord;
        FleetResult capped;
    };

    static std::vector<std::string>
    opNames()
    {
        return {"fleet/memscale", "fleet/fastcap-capped"};
    }

    static Watts
    meanFleetW(const FleetResult &r)
    {
        double s = 0.0;
        for (const FleetEpochRow &row : r.epochs)
            s += row.fleetW;
        return r.epochs.empty()
                   ? 0.0
                   : s / static_cast<double>(r.epochs.size());
    }

    ClusterConfig
    clusterConfig(Watts rest, const char *policy, Watts cap) const
    {
        ClusterConfig cc = fleet_;
        cc.server = server_;
        cc.server.restWatts = rest;
        cc.policy = policy;
        cc.capW = cap;
        return cc;
    }

    /** Build a harness, counting its constructor as set-up time. */
    static ClusterHarness
    timedCtor(PassReport &rep, const ClusterConfig &cc)
    {
        const std::int64_t t0 = nowNs();
        ClusterHarness h(cc);
        rep.ctorS += static_cast<double>(nowNs() - t0) / 1e9;
        return h;
    }

    void
    emptyScratch() const
    {
        for (const auto &e :
             std::filesystem::directory_iterator(scratch_))
            std::filesystem::remove_all(e.path());
    }

    ResultTally
    report(PassReport &rep, const Results &res) const
    {
        ResultTally tally;
        if (!res.ok)
            return tally;
        rep.ops.push_back(fleetOp(opNames()[0], res.uncoord, false));
        rep.ops.push_back(fleetOp(opNames()[1], res.capped, true));
        tally.add(res.calib);
        tally.add(res.uncoord);
        tally.add(res.capped);
        rep.model["sys_saved"] =
            1.0 - res.capped.fleetEnergyJ / res.uncoord.fleetEnergyJ;
        double p99 = 0.0;
        for (const RunResult &r : res.capped.servers)
            p99 = std::max(p99, r.serving.p99Us);
        rep.model["p99_us"] = p99;
        rep.model["cap_viol"] = res.capped.capViolations;
        rep.dramReqs = tally.dramReqs();
        return tally;
    }

    SystemConfig server_;
    ClusterConfig fleet_;
    std::string scratch_;
    double fleetCpuMs_ = 0.0;
    SystemConfig probeCfg_;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"paper_figs", "mid3_paper", "fleet16_cap", "serve_ladder"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &scratch)
{
    if (name == "paper_figs")
        return std::make_unique<PaperFigs>(seed);
    if (name == "mid3_paper")
        return std::make_unique<Mid3Paper>(seed);
    if (name == "fleet16_cap")
        return std::make_unique<Fleet16Cap>(seed, scratch);
    if (name == "serve_ladder")
        return std::make_unique<ServeLadder>(seed);
    return nullptr;
}

} // namespace perfbench
