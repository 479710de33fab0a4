#include "harness/system.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "cpu/core.hh"
#include "mem/controller.hh"
#include "sim/event_kinds.hh"
#include "sim/event_queue.hh"
#include "snapshot/serializer.hh"
#include "workload/mixes.hh"
#include "workload/trace_source.hh"

namespace memscale
{

namespace
{

/**
 * The snapshot's configuration fingerprint, one named field at a time
 * in file order.  A snapshot only replays bit-identically into the
 * exact system it was taken from.  checkpoint() writes these fields,
 * resume verifies them and readSnapshotMeta() skips them, all through
 * this one list.
 */
template <typename F>
void
forEachFingerprintField(const SystemConfig &cfg,
                        const std::string &policy_name, bool has_checker,
                        bool dynamic_policy, F &&f)
{
    f("mix", cfg.mixName);
    f("policy", policy_name);
    f("numCores", cfg.numCores);
    f("cpuGHz", cfg.cpuGHz);
    f("instrBudget", cfg.instrBudget);
    f("epochLen", cfg.epochLen);
    f("profileLen", cfg.profileLen);
    f("gamma", cfg.gamma);
    f("seed", cfg.seed);
    f("restWatts", cfg.restWatts);
    f("numChannels", cfg.mem.numChannels);
    f("ranksPerChannel", cfg.mem.ranksPerChannel());
    f("banksPerRank", cfg.mem.banksPerRank);
    f("kernel mode", static_cast<std::uint8_t>(cfg.kernelMode));
    f("observe", cfg.observe);
    f("modelCpuPower", cfg.modelCpuPower);
    f("protocolCheck", has_checker);
    f("dynamicPolicy", dynamic_policy);
    f("customApps", static_cast<std::uint32_t>(cfg.customApps.size()));
    // Idle-ladder fingerprint: demotion thresholds and consolidation
    // knobs shape the event stream and the migrator's remap table, so
    // a snapshot is only valid under the exact same ladder config.
    const IdleLadderConfig &lc = cfg.mem.ladder;
    f("ladder.demoteSlowPd", lc.demoteSlowPd);
    f("ladder.demoteSelfRefresh", lc.demoteSelfRefresh);
    f("ladder.demoteSrSlow", lc.demoteSrSlow);
    f("ladder.demoteDeepPd", lc.demoteDeepPd);
    f("ladder.migrate", lc.migrate);
    f("ladder.migrateInterval", lc.migrateInterval);
    f("ladder.hotRanks", lc.hotRanks);
    f("ladder.hotThreshold", lc.hotThreshold);
    f("ladder.maxSwapsPerInterval", lc.maxSwapsPerInterval);
    f("ladder.migrationLines", lc.migrationLines);
    f("ladder.counterSets", lc.counterSets);
}

struct FingerprintWriter
{
    SectionWriter &w;
    void operator()(const char *, const std::string &v) { w.str(v); }
    void operator()(const char *, std::uint64_t v) { w.u64(v); }
    void operator()(const char *, std::uint32_t v) { w.u32(v); }
    void operator()(const char *, std::uint8_t v) { w.u8(v); }
    void operator()(const char *, double v) { w.f64(v); }
    void operator()(const char *, bool v) { w.b(v); }
};

/** Reads the fingerprint; a mismatch is fatal with a named field. */
struct FingerprintReader
{
    SectionReader &r;
    bool verify;

    void
    operator()(const char *what, const std::string &want)
    {
        const std::string got = r.str();
        if (verify && got != want)
            fatal("resume: snapshot %s '%s' does not match run '%s'",
                  what, got.c_str(), want.c_str());
    }
    void operator()(const char *f, std::uint64_t v) { check(f, r.u64(), v); }
    void operator()(const char *f, std::uint32_t v) { check(f, r.u32(), v); }
    void operator()(const char *f, std::uint8_t v) { check(f, r.u8(), v); }
    void operator()(const char *f, bool v) { check(f, r.b(), v); }
    void
    operator()(const char *what, double want)
    {
        const double got = r.f64();
        if (verify && got != want)
            fatal("resume: snapshot %s %.17g does not match run %.17g",
                  what, got, want);
    }

    void
    check(const char *what, std::uint64_t got, std::uint64_t want)
    {
        if (verify && got != want)
            fatal("resume: snapshot %s %llu does not match run %llu",
                  what, static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    }
};

} // namespace

PolicyContext
SystemConfig::policyContext() const
{
    PolicyContext ctx;
    ctx.power = power;
    ctx.mem = mem;
    ctx.restWatts = restWatts;
    ctx.gamma = gamma;
    ctx.cpuGHz = cpuGHz;
    ctx.epochLen = epochLen;
    ctx.profileLen = profileLen;
    ctx.sloP99Us = serving.sloP99Us;
    ctx.powerCapW = powerCapW;
    return ctx;
}

double
RunResult::avgCpi() const
{
    if (coreCpi.empty())
        return 0.0;
    double s = 0.0;
    for (double c : coreCpi)
        s += c;
    return s / static_cast<double>(coreCpi.size());
}

double
RunResult::worstCpi() const
{
    double w = 0.0;
    for (double c : coreCpi)
        w = std::max(w, c);
    return w;
}

System::System(const SystemConfig &cfg, Policy &policy)
    : cfg_(cfg), policy_(policy), ctx_(cfg.policyContext()),
      eq_(cfg.kernelMode),
      mc_(std::make_unique<MemoryController>(eq_, cfg.mem)),
      integrator_(cfg.power, cfg.restWatts)
{
    const bool resuming = !cfg_.resumePath.empty();
    MemoryController &mc = *mc_;

    if (cfg_.threads != 1)
        fatal("threads=%u is not supported: each System runs "
              "serially (parallelise across runs with jobs=)",
              cfg_.threads);

    // Observability: registry + recorder exist only for observe runs;
    // both are pure readers of state the simulation maintains anyway.
    if (cfg_.observe) {
        registry_ = std::make_unique<StatRegistry>();
        mc.registerStats(*registry_, "mc0");
        policy_.registerStats(*registry_, "policy");
        recorder_ = std::make_shared<EpochRecorder>(registry_.get());
    }

    // Optional online protocol validation.  Environment- or
    // build-level strictness attaches the checker to every run
    // regardless of the config flag.
    if (cfg_.protocolCheck || cfg_.strictCheck ||
        ProtocolChecker::strictDefault()) {
        checker_ = std::make_unique<ProtocolChecker>(
            cfg_.strictCheck || ProtocolChecker::strictDefault());
        mc.setCommandObserver(checker_.get());
    }

    // Energy integration: close a constant-frequency interval before
    // every frequency change and once more at the end of the run.
    last_ = mc.sampleActivity();
    lastSample_ = eq_.now();
    mc.setBeforeFreqChangeHook([this] { closeInterval(); });

    policy_.configure(mc, ctx_);
    // On resume, the refresh engines' pending events come from the
    // snapshot (restore() drops anything configure() scheduled);
    // starting them here would double-refresh.
    if (!resuming) {
        mc.startRefresh();
        mc.startMigration();
    }

    // Workload construction.  Serving mode replaces the synthetic
    // trace cores with an open-loop front end fanning requests across
    // ServingWorkers; everything below that touches cores_ simply
    // iterates an empty vector then.  Closed-loop: numCores
    // instances, four per application in the mix (or the user's
    // custom profiles), phase schedules scaled to the budget.
    std::vector<CpuSampler *> samplers;
    if (cfg_.serving.enabled) {
        fe_ = std::make_unique<ServingFrontEnd>(
            eq_, mc, cfg_.serving, cfg_.numCores, cfg_.cpuGHz,
            cfg_.seed);
        if (registry_)
            fe_->registerStats(*registry_, "serving");
        policy_.attachTailProbe(
            [f = fe_.get()] { return f->tailWindow(); });
        samplers = fe_->samplers();
    } else {
        const double phase_scale =
            static_cast<double>(cfg_.instrBudget) /
            static_cast<double>(canonicalBudget);
        const std::uint64_t region =
            cfg_.mem.totalBytes() / cfg_.numCores;
        Rng seeder(cfg_.seed);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            const AppProfile &app =
                cfg_.customApps.empty()
                    ? appForCore(mixByName(cfg_.mixName), i)
                    : cfg_.customApps[i % cfg_.customApps.size()];
            profiles_.push_back(scaledProfile(app, phase_scale));
        }
        CoreParams cp;
        cp.cpuGHz = cfg_.cpuGHz;
        cp.instrBudget = cfg_.instrBudget;
        cp.runPastBudget = false;
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            Addr base = static_cast<Addr>(i) * region;
            sources_.push_back(std::make_unique<SyntheticTraceSource>(
                profiles_[i], base, cfg_.mem.lineBytes, seeder.next()));
            cores_.push_back(std::make_unique<Core>(
                eq_, i, *sources_.back(), mc, cp));
            samplers.push_back(cores_.back().get());
        }
    }

    for (auto &c : cores_) {
        c->setOnDone([this] {
            if (++done_ == cfg_.numCores) {
                phase_ = Phase::Complete;
                eq_.stop();
            }
        });
    }
    if (cfg_.modelCpuPower)
        lastStall_.assign(cfg_.numCores, 0);

    if (recorder_) {
        ObsMeta meta;
        meta.numCores = cfg_.numCores;
        meta.numChannels = cfg_.mem.numChannels;
        meta.ranksPerChannel = cfg_.mem.ranksPerChannel();
        if (fe_) {
            for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
                meta.coreNames.push_back("openloop");
        } else {
            for (const AppProfile &p : profiles_)
                meta.coreNames.push_back(p.name);
        }
        meta.label = cfg_.mixName + "/" + policy_.name();
        recorder_->setMeta(std::move(meta));
    }

    if (policy_.dynamic()) {
        epochs_ = std::make_unique<EpochController>(eq_, mc, samplers,
                                                    policy_, ctx_);
        epochs_->setBeforeCpuFreqChangeHook([this] { closeInterval(); });
        if (recorder_)
            epochs_->setRecorder(recorder_.get());
    }

    if (resuming) {
        restore();
    } else {
        // A resumed run rebuilds the in-flight epoch event and the
        // workload's pending events from the snapshot instead.
        if (epochs_)
            epochs_->start();
        for (auto &c : cores_)
            c->start();
        if (fe_)
            fe_->start();
    }

    // Serving runs end at the arrival horizon, not at an instruction
    // budget.  The stop is an EvEphemeral Sample-class event: never
    // exported, re-armed from the config on resume, and ordered after
    // any same-tick hardware/policy work (Sample runs last), so the
    // final tick's completions are all counted.
    if (fe_) {
        eq_.schedule(std::max(cfg_.serving.horizon, eq_.now()),
                     [this] {
                         phase_ = Phase::Complete;
                         eq_.stop();
                     },
                     EventClass::Sample, {EvEphemeral});
    }
}

System::~System() = default;

void
System::restore()
{
    SnapshotReader snap(cfg_.resumePath);
    SectionReader meta = snap.section("meta");
    forEachFingerprintField(cfg_, policy_.name(), checker_ != nullptr,
                            policy_.dynamic(),
                            FingerprintReader{meta, true});

    // Drop everything the fresh construction scheduled (refresh
    // arming, relocks from configure()) and jump the clock; the
    // snapshot's own event list replaces it wholesale.
    eq_.clearPending();
    SectionReader sim = snap.section("sim");
    eq_.setNow(sim.u64());

    SectionReader mcs = snap.section("mc");
    std::vector<MemClient *> clients;
    if (fe_)
        clients = fe_->clients();
    for (auto &c : cores_)
        clients.push_back(c.get());
    mc_->restoreState(mcs, clients);

    // Closed-loop snapshots carry a "cores" section, serving
    // snapshots a "serving" one; asking for the wrong section is
    // fatal, which is exactly the cross-mode guard we want.
    if (fe_) {
        SectionReader svs = snap.section("serving");
        fe_->restoreState(svs);
    } else {
        SectionReader crs = snap.section("cores");
        const std::uint32_t ncores = crs.u32();
        if (ncores != cfg_.numCores)
            fatal("resume: snapshot has %u cores, run has %u", ncores,
                  cfg_.numCores);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            sources_[i]->restoreState(crs);
            cores_[i]->restoreState(crs);
        }
    }

    SectionReader pw = snap.section("power");
    integrator_.restoreState(pw);
    last_.restoreState(pw);
    lastSample_ = pw.u64();
    const std::uint32_t nstall = pw.u32();
    for (std::uint32_t i = 0; i < nstall; ++i) {
        const Tick s = pw.u64();
        if (i < lastStall_.size())
            lastStall_[i] = s;
    }

    if (epochs_) {
        SectionReader es = snap.section("epoch");
        epochs_->restoreState(es);
    }
    if (recorder_) {
        SectionReader rs = snap.section("recorder");
        recorder_->restoreState(rs);
    }
    SectionReader ps = snap.section("policy");
    policy_.restoreState(ps);
    if (checker_) {
        SectionReader chs = snap.section("checker");
        checker_->restoreState(chs);
    }

    done_ = 0;
    for (auto &c : cores_) {
        if (c->done())
            ++done_;
    }

    // Re-schedule the saved pending events in their original
    // execution order; fresh insertion sequences then preserve
    // every same-tick tie-break.
    const std::uint32_t npend = sim.u32();
    for (std::uint32_t i = 0; i < npend; ++i) {
        const Tick when = sim.u64();
        const auto cls = static_cast<EventClass>(sim.u8());
        EventTag tag;
        tag.kind = sim.u32();
        tag.owner = sim.u32();
        tag.a = sim.u64();
        tag.b = sim.u64();
        EventCallback cb;
        switch (tag.kind) {
          case EvCoreIssueMiss:
            if (tag.owner >= cores_.size())
                fatal("resume: core event owner %u out of range",
                      tag.owner);
            cb = cores_[tag.owner]->rebuildEvent(tag.kind);
            break;
          case EvChanBurstDone:
          case EvChanPreDone:
          case EvChanRelockEnter:
          case EvChanRelockExit:
          case EvChanRefreshTick:
          case EvChanRefreshDone:
          case EvChanPdDemote:
            cb = mc_->rebuildChannelEvent(tag.owner, tag.kind, tag.a,
                                          tag.b);
            break;
          case EvMemMigrate:
            cb = mc_->rebuildMigrationEvent();
            break;
          case EvEpochEndProfile:
          case EvEpochEndEpoch:
            if (!epochs_)
                fatal("resume: snapshot carries an epoch event "
                      "but the policy is static");
            cb = epochs_->rebuildEvent(tag.kind);
            break;
          case EvServeArrival:
          case EvServeIssue:
            if (!fe_)
                fatal("resume: snapshot carries a serving event "
                      "but the run is closed-loop");
            cb = fe_->rebuildEvent(tag.kind, tag.owner);
            break;
          default:
            fatal("resume: unknown event kind %u (%s)", tag.kind,
                  eventKindName(tag.kind));
        }
        eq_.schedule(when, std::move(cb), cls, tag);
    }
}

void
System::accrue(SystemEnergyIntegrator &integ, std::vector<Tick> &stall,
               const IntervalActivity &cur) const
{
    IntervalActivity d = cur;
    d.dt = eq_.now() - lastSample_;
    for (std::size_t i = 0; i < d.ranks.size(); ++i)
        d.ranks[i] = cur.ranks[i] - last_.ranks[i];
    for (std::size_t i = 0; i < d.channelBurst.size(); ++i)
        d.channelBurst[i] = cur.channelBurst[i] - last_.channelBurst[i];
    if (d.dt == 0)
        return;
    integ.addInterval(d);
    if (!cfg_.modelCpuPower || (cores_.empty() && !fe_))
        return;
    const double dt_sec = tickToSec(d.dt);
    Joules cpu_e = 0.0;
    if (!cores_.empty()) {
        // Cores still run at the clock in effect during the closing
        // interval (CPU re-clocks fire after this).
        const double ghz = cores_[0]->frequencyGHz();
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            const Core &c = *cores_[i];
            Tick ds = c.stallTime() - stall[i];
            stall[i] = c.stallTime();
            Tick active_end =
                c.done() ? std::min(c.doneAt(), eq_.now()) : eq_.now();
            Tick active =
                active_end > lastSample_ ? active_end - lastSample_ : 0;
            Tick busy_t = active > ds ? active - ds : 0;
            double busy = static_cast<double>(busy_t) /
                          static_cast<double>(d.dt);
            cpu_e += cfg_.power.cpuCorePower(ghz, busy) * dt_sec;
        }
    } else {
        for (std::size_t i = 0; i < fe_->numWorkers(); ++i) {
            const ServingWorker &wk = fe_->worker(i);
            const Tick b = wk.busyAsOf(eq_.now());
            const Tick db = b > stall[i] ? b - stall[i] : 0;
            stall[i] = b;
            const double busy = std::min(
                1.0, static_cast<double>(db) / static_cast<double>(d.dt));
            cpu_e += cfg_.power.cpuCorePower(wk.frequencyGHz(), busy) *
                     dt_sec;
        }
    }
    integ.addCpuEnergy(cpu_e);
}

void
System::closeInterval()
{
    IntervalActivity cur = mc_->sampleActivity();
    accrue(integrator_, lastStall_, cur);
    last_ = std::move(cur);
    lastSample_ = eq_.now();
}

RunResult
System::run()
{
    advance(cfg_.maxSimTime);
    return finish();
}

bool
System::advance(Tick until)
{
    if (phase_ != Phase::Running || until <= eq_.now())
        return phase_ == Phase::Running;
    // The stop is one more EvEphemeral Sample-class event: it runs
    // after every Hardware and Policy event at `until` and every
    // Sample event already pending there, and before any Sample event
    // scheduled there from here on.
    EventId stop = InvalidEventId;
    if (until < cfg_.maxSimTime)
        stop = eq_.schedule(until, [this] { eq_.stop(); },
                            EventClass::Sample, {EvEphemeral});
    eventsRun_ += eq_.runUntil(cfg_.maxSimTime);
    const bool reached = stop != InvalidEventId && !eq_.cancel(stop);
    if (phase_ == Phase::Running && !reached)
        phase_ = Phase::TimeLimit;
    return phase_ == Phase::Running;
}

void
System::setPowerCap(Watts w)
{
    ctx_.powerCapW = w;
    if (epochs_)
        epochs_->setPowerCap(w);
}

SystemTelemetry
System::telemetry()
{
    SystemEnergyIntegrator integ = integrator_;
    std::vector<Tick> stall = lastStall_;
    accrue(integ, stall, mc_->sampleActivity());
    SystemTelemetry t;
    t.energy = integ.energy();
    if (fe_)
        t.serving = fe_->stats(eq_.now());
    return t;
}

void
System::checkpoint(const std::string &path)
{
    const std::vector<PendingEvent> pend = eq_.exportPending();
    std::uint32_t relocks = 0;
    std::uint32_t refreshes = 0;
    for (const PendingEvent &pe : pend) {
        if (pe.tag.kind == EvChanRelockEnter ||
            pe.tag.kind == EvChanRelockExit)
            ++relocks;
        if (pe.tag.kind == EvChanRefreshDone)
            ++refreshes;
    }

    SnapshotWriter sw;
    SectionWriter &m = sw.section("meta");
    forEachFingerprintField(cfg_, policy_.name(), checker_ != nullptr,
                            policy_.dynamic(), FingerprintWriter{m});
    // Summary block (SnapshotMeta): what the checkpoint caught
    // mid-flight, for diagnostics and test probes.
    m.u64(eq_.now());
    m.u32(done_);
    m.u32(static_cast<std::uint32_t>(pend.size()));
    m.u64(mc_->requestPool().inUse());
    m.u32(mc_->ranksPoweredDown());
    m.u32(relocks);
    m.u32(refreshes);
    m.u32(mc_->pendingRankCloses());

    SectionWriter &sim = sw.section("sim");
    sim.u64(eq_.now());
    sim.u32(static_cast<std::uint32_t>(pend.size()));
    for (const PendingEvent &pe : pend) {
        sim.u64(pe.when);
        sim.u8(static_cast<std::uint8_t>(pe.cls));
        sim.u32(pe.tag.kind);
        sim.u32(pe.tag.owner);
        sim.u64(pe.tag.a);
        sim.u64(pe.tag.b);
    }

    mc_->saveState(sw.section("mc"));

    if (fe_) {
        fe_->saveState(sw.section("serving"));
    } else {
        SectionWriter &crs = sw.section("cores");
        crs.u32(cfg_.numCores);
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            sources_[i]->saveState(crs);
            cores_[i]->saveState(crs);
        }
    }

    SectionWriter &pw = sw.section("power");
    integrator_.saveState(pw);
    last_.saveState(pw);
    pw.u64(lastSample_);
    pw.u32(static_cast<std::uint32_t>(lastStall_.size()));
    for (Tick s : lastStall_)
        pw.u64(s);

    if (epochs_)
        epochs_->saveState(sw.section("epoch"));
    if (recorder_)
        recorder_->saveState(sw.section("recorder"));
    policy_.saveState(sw.section("policy"));
    if (checker_)
        checker_->saveState(sw.section("checker"));

    sw.writeFile(path);
}

RunResult
System::finish()
{
    RunResult res;
    res.hitTimeLimit = phase_ == Phase::TimeLimit;
    phase_ = Phase::Finished;
    if (res.hitTimeLimit) {
        warn("run %s/%s hit the simulated-time limit (%0.1f ms)",
             cfg_.mixName.c_str(), policy_.name().c_str(),
             tickToMs(cfg_.maxSimTime));
    }

    closeInterval();

    const Tick now = eq_.now();
    res.mixName = cfg_.mixName;
    res.policyName = policy_.name();
    res.runtime = now;
    res.energy = integrator_.energy();
    res.counters = mc_->sampleCounters();
    res.avgMemPower = integrator_.averageMemoryPower();
    res.avgDimmPower = integrator_.averageDimmPower();
    res.avgSystemPower = integrator_.averagePower();
    double total_instr = 0.0;
    if (fe_) {
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            const ServingWorker &w = fe_->worker(i);
            const double instr = static_cast<double>(w.tic(now));
            // busyTime is in picoseconds; cycles = ps * GHz / 1000.
            const double cycles =
                static_cast<double>(w.busyTime()) * cfg_.cpuGHz /
                1000.0;
            res.coreCpi.push_back(instr > 0.0 ? cycles / instr : 0.0);
            res.coreTlm.push_back(w.tlm());
            res.coreApp.push_back("openloop");
            total_instr += instr;
        }
        res.serving = fe_->stats(now);
    } else {
        for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
            res.coreCpi.push_back(cores_[i]->budgetCpi());
            res.coreTlm.push_back(cores_[i]->tlm());
            res.coreApp.push_back(profiles_[i].name);
        }
        total_instr = static_cast<double>(cfg_.instrBudget) *
                      cfg_.numCores;
    }
    if (total_instr > 0.0) {
        res.measuredRpki = 1000.0 *
                           static_cast<double>(res.counters.reads) /
                           total_instr;
        res.measuredWpki = 1000.0 *
                           static_cast<double>(res.counters.writes) /
                           total_instr;
    }
    if (epochs_)
        res.timeline = epochs_->history();
    if (recorder_) {
        // The registry dies with the System; the recorded buffer (a
        // plain columnar copy) lives on in the result.
        recorder_->detach();
        res.obs = recorder_;
    }
    if (checker_) {
        res.protocolViolations = checker_->violations();
        res.commandsChecked = checker_->commandsChecked();
        for (const ProtocolViolation &v : checker_->samples())
            res.protocolViolationSamples.push_back(v.str());
        if (res.protocolViolations != 0) {
            warn("run %s/%s: %llu protocol violation(s); first: %s",
                 cfg_.mixName.c_str(), policy_.name().c_str(),
                 static_cast<unsigned long long>(
                     res.protocolViolations),
                 res.protocolViolationSamples.front().c_str());
        }
    }
    return res;
}

SnapshotMeta
readSnapshotMeta(const std::string &path)
{
    SnapshotReader snap(path);
    SectionReader m = snap.section("meta");
    SnapshotMeta out;
    SectionReader names = m;   // the fingerprint opens with both
    out.mixName = names.str();
    out.policyName = names.str();
    forEachFingerprintField(SystemConfig{}, "", false, false,
                            FingerprintReader{m, false});
    out.now = m.u64();
    out.doneCores = m.u32();
    out.pendingEvents = m.u32();
    out.inFlightRequests = m.u64();
    out.ranksPoweredDown = m.u32();
    out.pendingRelocks = m.u32();
    out.pendingRefreshes = m.u32();
    out.pendingRankCloses = m.u32();
    return out;
}

} // namespace memscale
