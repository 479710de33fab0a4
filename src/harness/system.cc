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
 * The snapshot's configuration fingerprint: the whole SystemConfig,
 * one named field at a time in file order, each nested config struct
 * through its own list (MemConfig, PowerParams, AppProfile,
 * ServingOptions).  A snapshot only replays bit-identically into the
 * exact system it was taken from: checkpoint() writes these fields,
 * resume verifies them and readSnapshotMeta() adopts them.
 *
 * Left out, because none of them shapes the simulated state:
 *  - powerCapW: the initial value of a runtime knob; setPowerCap()
 *    re-assigns it, and a fleet does so every coordination epoch;
 *  - resumePath: where the state comes from, not what it is;
 *  - threads: must be 1, the constructor rejects anything else;
 *  - strictCheck: whether the first protocol violation aborts.  The
 *    checker's presence, which adds the "checker" section, is
 *    fingerprinted as protocolCheck.
 */
void
transferFingerprint(SectionIO &io, SystemConfig &cfg, std::string &policy,
                    bool &has_checker, bool &dynamic_policy)
{
    io.expect("mix", cfg.mixName);
    io.expect("policy", policy);
    io.expect("dynamicPolicy", dynamic_policy);
    io.expect("numCores", cfg.numCores);
    io.expect("cpuGHz", cfg.cpuGHz);
    io.expect("instrBudget", cfg.instrBudget);
    cfg.mem.fingerprint(io);
    cfg.power.fingerprint(io);
    io.expect("gamma", cfg.gamma);
    io.expect("epochLen", cfg.epochLen);
    io.expect("profileLen", cfg.profileLen);
    io.expect("restWatts", cfg.restWatts);
    io.expect("memPowerFraction", cfg.memPowerFraction);
    io.expect("seed", cfg.seed);
    io.expectList("customApps", cfg.customApps,
                  [&io](AppProfile &app) { app.fingerprint(io); });
    io.expect("modelCpuPower", cfg.modelCpuPower);
    io.expect("maxSimTime", cfg.maxSimTime);
    io.expect("protocolCheck", has_checker);
    io.expect("observe", cfg.observe);
    cfg.serving.fingerprint(io);
}

/**
 * Whether the first protocol violation aborts a run of `cfg`.  A
 * strict run attaches the checker whatever cfg.protocolCheck says, so
 * MEMSCALE_STRICT=1 in the environment attaches it to every run.
 */
bool
strictRun(const SystemConfig &cfg)
{
    return cfg.strictCheck || ProtocolChecker::strictEnv();
}

/** The meta section's summary block, after the fingerprint. */
void
transferSummary(SectionIO &io, SnapshotMeta &m)
{
    io(m.now);
    io(m.doneCores);
    io(m.pendingEvents);
    io(m.inFlightRequests);
    io(m.ranksPoweredDown);
    io(m.pendingRelocks);
    io(m.pendingRefreshes);
    io(m.pendingRankCloses);
}

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

System::System(const SystemConfig &cfg, Policy &policy)
    : cfg_(cfg), policy_(policy), ctx_(cfg.policyContext()),
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

    // Optional online protocol validation.
    const bool strict = strictRun(cfg_);
    if (cfg_.protocolCheck || strict) {
        checker_ = std::make_unique<ProtocolChecker>(strict);
        mc.setCommandObserver(checker_.get());
    }

    // Energy integration: close a constant-frequency interval before
    // every frequency change and once more at the end of the run.
    last_ = mc.sampleActivity();
    lastSample_ = eq_.now();
    mc.setBeforeFreqChangeHook([this] { closeInterval(); });

    policy_.configure(mc, ctx_);
    // On resume, the refresh engines' pending events come from the
    // snapshot (transfer() drops anything configure() scheduled);
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
        SnapshotReader snap(cfg_.resumePath);
        SnapshotIO io(snap);
        transfer(io);
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
System::transfer(SnapshotIO &snap)
{
    // Save: the live pending-event list.  Restore: read from "sim"
    // and re-scheduled once every component is back.
    std::vector<PendingEvent> pend;
    if (!snap.loading())
        pend = eq_.exportPending();

    snap.section("meta", [&](SectionIO &io) {
        std::string policy = policy_.name();
        bool has_checker = checker_ != nullptr;
        bool dynamic_policy = policy_.dynamic();
        transferFingerprint(io, cfg_, policy, has_checker,
                            dynamic_policy);
        // Summary block (SnapshotMeta): what the checkpoint caught
        // mid-flight, for diagnostics and test probes.  A restore
        // reads it and has no use for it.
        SnapshotMeta m;
        if (!io.loading()) {
            m.now = eq_.now();
            m.doneCores = done_;
            m.pendingEvents = static_cast<std::uint32_t>(pend.size());
            m.inFlightRequests = mc_->requestPool().inUse();
            m.ranksPoweredDown = mc_->ranksPoweredDown();
            for (const PendingEvent &pe : pend) {
                if (pe.tag.kind == EvChanRelockEnter ||
                    pe.tag.kind == EvChanRelockExit)
                    ++m.pendingRelocks;
                if (pe.tag.kind == EvChanRefreshDone)
                    ++m.pendingRefreshes;
            }
            m.pendingRankCloses = mc_->pendingRankCloses();
        }
        transferSummary(io, m);
    });

    snap.section("sim", [&](SectionIO &io) {
        Tick now = eq_.now();
        io(now);
        io.list(pend, [&io](PendingEvent &pe) {
            io(pe.when);
            io.enumByte("event class", pe.cls, EventClass::Sample);
            io(pe.tag.kind);
            io(pe.tag.owner);
            io(pe.tag.a);
            io(pe.tag.b);
        });
        if (!io.loading())
            return;
        for (const PendingEvent &pe : pend) {
            if (pe.when < now)
                io.fail("pending event at tick %llu precedes the "
                        "snapshot's tick %llu",
                        static_cast<unsigned long long>(pe.when),
                        static_cast<unsigned long long>(now));
        }
        // The list is in execution order, and a sequence follows from
        // its position (EventQueue::exportPending()): the i-th event
        // takes i + 1 and the next schedule() n + 1.  That keeps every
        // tie-break.
        for (std::size_t i = 0; i < pend.size(); ++i)
            pend[i].seq = i + 1;
        // Drop everything the fresh construction scheduled (refresh
        // arming, relocks and demotion plans from configure()) and
        // jump the clock; the snapshot's own event list replaces it
        // wholesale.
        eq_.clearPending();
        eq_.setNow(now);
        eq_.setNextSeq(pend.size() + 1);
    });

    std::vector<MemClient *> clients;
    if (fe_)
        clients = fe_->clients();
    for (auto &c : cores_)
        clients.push_back(c.get());
    snap.section("mc",
                 [&](SectionIO &io) { mc_->transfer(io, clients); });

    // Closed-loop snapshots carry a "cores" section, serving
    // snapshots a "serving" one; asking for the wrong section is
    // fatal, which is exactly the cross-mode guard we want.
    if (fe_) {
        snap.section("serving",
                     [&](SectionIO &io) { fe_->transfer(io); });
    } else {
        snap.section("cores", [&](SectionIO &io) {
            io.expect("cores", cfg_.numCores);
            for (std::uint32_t i = 0; i < cfg_.numCores; ++i) {
                sources_[i]->transfer(io);
                cores_[i]->transfer(io);
            }
        });
    }

    snap.section("power", [&](SectionIO &io) {
        integrator_.transfer(io);
        last_.transfer(io);
        io(lastSample_);
        auto nstall = static_cast<std::uint32_t>(lastStall_.size());
        io.expect("stall entries", nstall);
        for (Tick &t : lastStall_)
            io(t);
        // The next interval is taken as a difference against it.
        if (io.loading() &&
            (last_.ranks.size() != cfg_.mem.totalRanks() ||
             last_.channelBurst.size() != cfg_.mem.numChannels ||
             last_.channelMHz.size() != cfg_.mem.numChannels))
            io.fail("interval sample of %zu ranks and %zu channels in "
                    "a %u-rank, %u-channel system",
                    last_.ranks.size(), last_.channelBurst.size(),
                    cfg_.mem.totalRanks(), cfg_.mem.numChannels);
    });

    if (epochs_)
        snap.section("epoch",
                     [&](SectionIO &io) { epochs_->transfer(io); });
    if (recorder_)
        snap.section("recorder",
                     [&](SectionIO &io) { recorder_->transfer(io); });
    snap.section("policy", [&](SectionIO &io) {
        if (io.loading())
            policy_.restoreState(io.reader());
        else
            policy_.saveState(io.writer());
    });
    if (checker_)
        snap.section("checker",
                      [&](SectionIO &io) { checker_->transfer(io); });

    if (!snap.loading())
        return;
    done_ = 0;
    for (auto &c : cores_) {
        if (c->done())
            ++done_;
    }

    // Re-schedule the saved pending events with the sequences their
    // list positions gave them.
    for (const PendingEvent &pe : pend) {
        const EventTag &tag = pe.tag;
        EventCallback cb;
        switch (tag.kind) {
          case EvCoreIssueMiss:
            if (tag.owner >= cores_.size())
                fatal("resume: core event owner %u out of range "
                      "(snapshot section sim)",
                      tag.owner);
            cb = cores_[tag.owner]->rebuildEvent(tag.kind);
            break;
          case EvChanBurstDone:
          case EvChanPreDone:
          case EvChanRelockEnter:
          case EvChanRelockExit:
          case EvChanRefreshTick:
          case EvChanRefreshDone:
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
                      "but the policy is static (snapshot section sim)");
            cb = epochs_->rebuildEvent(tag.kind);
            break;
          case EvServeArrival:
          case EvServeIssue:
            if (!fe_)
                fatal("resume: snapshot carries a serving event but "
                      "the run is closed-loop (snapshot section sim)");
            cb = fe_->rebuildEvent(tag.kind, tag.owner);
            break;
          default:
            fatal("resume: unknown event kind %u (%s) (snapshot "
                  "section sim)",
                  tag.kind, eventKindName(tag.kind));
        }
        eq_.restore(pe, std::move(cb));
    }
    mc_->checkPendingEvents(pend);
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
    // scheduled there from here on.  If the run completes first, the
    // stop stays pending, harmlessly: exportPending() skips EvEphemeral
    // events, and the phase has left Running, so no later advance()
    // runs the queue again.
    cutReached_ = false;
    if (until < cfg_.maxSimTime)
        eq_.schedule(until,
                     [this] {
                         cutReached_ = true;
                         eq_.stop();
                     },
                     EventClass::Sample, {EvEphemeral});
    eventsRun_ += eq_.runUntil(cfg_.maxSimTime);
    if (phase_ == Phase::Running && !cutReached_)
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
    SnapshotWriter sw;
    SnapshotIO io(sw);
    transfer(io);
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
    SectionReader r = snap.section("meta");
    SectionIO io(r, false);
    SystemConfig cfg;
    SnapshotMeta out;
    bool has_checker = false;
    bool dynamic_policy = false;
    transferFingerprint(io, cfg, out.policyName, has_checker,
                        dynamic_policy);
    transferSummary(io, out);
    r.finish();
    out.mixName = cfg.mixName;
    return out;
}

std::string
runIdentity(const SystemConfig &cfg, const Policy &policy)
{
    SectionWriter w;
    SectionIO io(w);
    SystemConfig c = cfg;
    std::string name = policy.name();
    bool has_checker = c.protocolCheck || strictRun(c);
    bool dynamic_policy = policy.dynamic();
    transferFingerprint(io, c, name, has_checker, dynamic_policy);
    io(c.powerCapW);
    io(c.strictCheck);
    // A run with threads != 1 only fails, but its error names the
    // value, so two such runs are not the same run either.
    io(c.threads);
    const std::vector<std::uint8_t> &bytes = w.data();
    return std::string(bytes.begin(), bytes.end());
}

} // namespace memscale
