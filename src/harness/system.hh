/**
 * @file
 * Full-system wiring: cores + synthetic trace sources + memory
 * controller + power integrator + policy (+ epoch controller for
 * dynamic policies), run to completion of a workload mix.
 */

#ifndef MEMSCALE_HARNESS_SYSTEM_HH
#define MEMSCALE_HARNESS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/protocol_checker.hh"
#include "common/types.hh"
#include "harness/serving.hh"
#include "obs/epoch_recorder.hh"
#include "mem/config.hh"
#include "workload/app_profile.hh"
#include "mem/counters.hh"
#include "memscale/epoch_controller.hh"
#include "memscale/policies/policy.hh"
#include "power/params.hh"
#include "power/system_power.hh"
#include "sim/event_queue.hh"

namespace memscale
{

class SnapshotIO;

struct SystemConfig
{
    std::string mixName = "MID1";
    std::uint32_t numCores = 16;
    double cpuGHz = 4.0;
    /**
     * Instructions per application instance.  The paper runs 100M
     * SimPoints; benches default to a scaled-down budget with phase
     * schedules scaled to match (see workload/mixes.hh).
     */
    std::uint64_t instrBudget = 5'000'000;

    MemConfig mem;
    PowerParams power;

    double gamma = 0.10;               ///< max CPI degradation
    Tick epochLen = msToTick(5.0);
    Tick profileLen = usToTick(300.0);

    /** Non-memory system power; 0 means "to be calibrated". */
    Watts restWatts = 0.0;
    /** Memory subsystem share of server power at the baseline. */
    double memPowerFraction = 0.40;

    /**
     * Server power budget in Watts handed to cap-aware policies
     * (fastcap); 0 means uncapped.  The initial value of a runtime
     * knob (System::setPowerCap), so it is deliberately NOT part of
     * the snapshot fingerprint.
     */
    Watts powerCapW = 0.0;

    std::uint64_t seed = 12345;

    /**
     * When non-empty, cores cycle through these profiles instead of
     * the named mix (library users can define arbitrary workloads);
     * mixName then only labels the results.
     */
    std::vector<AppProfile> customApps;

    /**
     * Track CPU core energy explicitly (coordinated-DVFS extension).
     * Off by default: the paper keeps CPU power inside the fixed
     * rest-of-system draw, and baseline calibration subtracts the
     * modelled CPU power from it when this is on.
     */
    bool modelCpuPower = false;

    /** Hard wall on simulated time (guards runaway experiments). */
    Tick maxSimTime = msToTick(2000.0);

    /**
     * Must be 1; any other value is fatal.  System runs serially (runs
     * parallelise across the sweep engine's jobs= instead).  Kept only
     * because perfbench assigns it; not part of the snapshot
     * fingerprint.
     */
    unsigned threads = 1;

    /**
     * Attach the online DDR3 protocol checker (check/protocol_checker)
     * to every channel.  Violations are counted in RunResult; with
     * strictCheck (or MEMSCALE_STRICT=1 in the environment) the first
     * violation aborts the run.
     */
    bool protocolCheck = false;
    bool strictCheck = false;

    /**
     * Observability (src/obs): build a StatRegistry over the whole
     * component tree and record a per-epoch columnar timeline into
     * RunResult::obs.  Off by default; the recording path is purely
     * read-only, so enabling it leaves every simulation result —
     * including the golden state hashes — bit-identical.
     */
    bool observe = false;

    /**
     * Resume from this snapshot (src/snapshot) instead of starting at
     * tick 0.  Snapshots are written by stepping a System:
     * advance(tick), then checkpoint(path).
     */
    std::string resumePath;

    /**
     * Open-loop serving front end (harness/serving).  When enabled,
     * the synthetic trace cores are replaced by ServingWorkers fed
     * from an arrival process; the run ends at serving.horizon
     * instead of at an instruction budget.
     */
    ServingOptions serving;

    PolicyContext policyContext() const;
};

struct RunResult
{
    std::string mixName;
    std::string policyName;
    Tick runtime = 0;                    ///< last core's finish tick
    std::vector<double> coreCpi;         ///< budget CPI per core
    std::vector<std::uint64_t> coreTlm;  ///< LLC misses per core
    std::vector<std::string> coreApp;
    EnergyBreakdown energy;              ///< integrated over the run
    McCounters counters;                 ///< cumulative at end
    std::vector<EpochRecord> timeline;   ///< dynamic policies only
    Watts avgMemPower = 0.0;             ///< DIMMs + MC
    Watts avgDimmPower = 0.0;
    Watts avgSystemPower = 0.0;
    double measuredRpki = 0.0;
    double measuredWpki = 0.0;
    bool hitTimeLimit = false;
    /// @name Protocol-checker results (zero unless protocolCheck).
    /// @{
    std::uint64_t protocolViolations = 0;
    std::uint64_t commandsChecked = 0;
    std::vector<std::string> protocolViolationSamples;
    /// @}

    /**
     * Recorded epoch timeline + stat snapshots (cfg.observe runs
     * only; null otherwise).  Shared so RunResult stays cheap to
     * copy through the sweep/differential plumbing, which ignores it:
     * the state hashes and field diffs cover simulation outputs only.
     */
    std::shared_ptr<const EpochRecorder> obs;

    /**
     * Open-loop serving metrics (serving runs only; valid is false
     * otherwise).  Flattened into the differential-harness vector
     * only when valid, so closed-loop hashes are untouched.
     */
    ServingStats serving;

    double avgCpi() const;
};

/**
 * Summary block of a snapshot's "meta" section, exposed so tests and
 * tools can probe what a checkpoint caught mid-flight (in-flight
 * requests, powered-down ranks, pending relock/refresh events,
 * deferred bank closes) without restoring it.
 */
struct SnapshotMeta
{
    std::string mixName;
    std::string policyName;
    Tick now = 0;
    std::uint32_t doneCores = 0;
    std::uint32_t pendingEvents = 0;
    std::uint64_t inFlightRequests = 0;
    std::uint32_t ranksPoweredDown = 0;
    std::uint32_t pendingRelocks = 0;
    std::uint32_t pendingRefreshes = 0;
    /** Precharges recorded in a rank but not yet applied. */
    std::uint32_t pendingRankCloses = 0;
};

/** Parse a snapshot file's meta block (fatal on unreadable files). */
SnapshotMeta readSnapshotMeta(const std::string &path);

/**
 * The identity bytes of a run of `cfg` under `policy`: the snapshot
 * fingerprint's field list (the whole config and the policy name),
 * then the fields it leaves out that still change the outcome:
 * powerCapW, strictCheck, and threads (whose only outcome is an error
 * naming it).  Two fresh runs with equal identities produce identical
 * results.  A resumed run is not identified by its config (its state
 * comes from cfg.resumePath), so callers must not key one by these
 * bytes.
 */
std::string runIdentity(const SystemConfig &cfg, const Policy &policy);

/** What finish() would report at the current tick (System::telemetry). */
struct SystemTelemetry
{
    EnergyBreakdown energy;
    /** Serving runs only (valid is false otherwise). */
    ServingStats serving;
};

class Core;
class MemoryController;
class StatRegistry;
class SyntheticTraceSource;

/**
 * One simulated server, built once and then stepped.  The constructor
 * wires every component, or rebuilds them from cfg.resumePath;
 * advance() runs the event queue forward; checkpoint() writes a
 * snapshot of the state it stopped in; finish() closes the energy
 * integral and collects the RunResult.  advance() stops on an
 * EvEphemeral Sample-class event and checkpoint() only reads, so a
 * stepped or cut run is bit-identical to an uninterrupted one.
 */
class System
{
  public:
    System(const SystemConfig &cfg, Policy &policy);
    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run the mix to completion: advance(maxSimTime), then finish(). */
    RunResult run();

    /**
     * Run events up to tick `until`.  Afterwards every Hardware- and
     * Policy-class event at `until` has run, including ones scheduled
     * during the call; only Sample-class events scheduled at `until`
     * during the call wait for the next one.  Stops early when the
     * workload finishes or maxSimTime passes, and is a no-op after
     * that.  Returns whether the run is still live: only a live run
     * may be cut with checkpoint() or stepped further.
     */
    bool advance(Tick until);

    /** Re-assign the budget cap-aware policies read (0 = uncapped). */
    void setPowerCap(Watts w);

    /**
     * Pure read of the energy and serving stats finish() would report
     * now.  The open interval is integrated into copies: committing
     * it would split the energy integral at every read and change its
     * floating-point rounding.
     */
    SystemTelemetry telemetry();

    /** Write a checkpoint of the current state to `path`. */
    void checkpoint(const std::string &path);

    /** Close the final interval and collect results (ends the run). */
    RunResult finish();

    Tick now() const { return eq_.now(); }

    /** Events executed by advance() so far (a host-cost probe). */
    std::uint64_t eventsRun() const { return eventsRun_; }

  private:
    /** Every snapshot section in file order, in either direction. */
    void transfer(SnapshotIO &snap);
    void accrue(SystemEnergyIntegrator &integ, std::vector<Tick> &stall,
                const IntervalActivity &cur) const;
    void closeInterval();

    SystemConfig cfg_;
    Policy &policy_;
    PolicyContext ctx_;
    EventQueue eq_;
    std::unique_ptr<MemoryController> mc_;
    std::unique_ptr<StatRegistry> registry_;
    std::shared_ptr<EpochRecorder> recorder_;
    std::unique_ptr<ProtocolChecker> checker_;

    // Energy integration: the interval open since lastSample_.
    // lastStall_ holds each core's stall time (closed loop) or each
    // serving worker's busy time at lastSample_.
    SystemEnergyIntegrator integrator_;
    IntervalActivity last_;
    Tick lastSample_ = 0;
    std::vector<Tick> lastStall_;

    std::vector<AppProfile> profiles_;
    std::vector<std::unique_ptr<SyntheticTraceSource>> sources_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<ServingFrontEnd> fe_;
    std::unique_ptr<EpochController> epochs_;

    /** Where the run stands; advance() only moves a Running one. */
    enum class Phase { Running, Complete, TimeLimit, Finished };
    Phase phase_ = Phase::Running;
    /** Set by advance()'s stop event: the run reached `until`. */
    bool cutReached_ = false;
    std::uint32_t done_ = 0;
    std::uint64_t eventsRun_ = 0;
};

} // namespace memscale

#endif // MEMSCALE_HARNESS_SYSTEM_HH
