/**
 * @file
 * Full-system wiring: cores + synthetic trace sources + memory
 * controller + power integrator + policy (+ epoch controller for
 * dynamic policies), run to completion of a workload mix.
 */

#ifndef MEMSCALE_HARNESS_SYSTEM_HH
#define MEMSCALE_HARNESS_SYSTEM_HH

#include <functional>
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
     * Event-kernel implementation (sim/event_queue).  Reference is the
     * binary-search-insert oracle used by the differential harness;
     * both modes must produce bit-identical results.
     */
    KernelMode kernelMode = KernelMode::Fast;

    /**
     * Must be 1; any other value is fatal.  System runs serially (runs
     * parallelise across the sweep engine's jobs= instead).  Kept only
     * because perfbench assigns it; not part of the result identity.
     */
    unsigned threads = 1;

    /**
     * Attach the online DDR3 protocol checker (check/protocol_checker)
     * to every channel.  Violations are counted in RunResult; with
     * strictCheck (or MEMSCALE_STRICT=1 / -DMEMSCALE_STRICT=ON) the
     * first violation aborts the run.
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
     * Checkpoint/restore (src/snapshot).  Snapshot writers are
     * EvEphemeral Sample-class events and pure readers of simulation
     * state, so a run that writes checkpoints remains bit-identical
     * to one that doesn't — the golden hashes pin this.
     */
    struct SnapshotOptions
    {
        /** Write `out`.<tick> every this many ticks (0 disables). */
        Tick every = 0;
        /** Write `out` once at this absolute tick (0 disables). */
        Tick at = 0;
        /** Stop the run right after the `at` snapshot (sharding). */
        bool stopAfter = false;
        /** Output path: exact for `at`, prefix for `every`. */
        std::string out;
        /** Resume from this snapshot instead of starting at tick 0. */
        std::string resumePath;
    };
    SnapshotOptions snapshot;

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

    /// @name Checkpoint bookkeeping (excluded from result hashing —
    /// a sharded chain's final result must equal the unsharded run's).
    /// @{
    bool stoppedAtCheckpoint = false;
    std::vector<std::string> checkpointsWritten;
    /// @}

    /**
     * Open-loop serving metrics (serving runs only; valid is false
     * otherwise).  Flattened into the differential-harness vector
     * only when valid, so closed-loop hashes are untouched.
     */
    ServingStats serving;

    double avgCpi() const;
    double worstCpi() const;
};

/**
 * Summary block of a snapshot's "meta" section, exposed so tests and
 * tools can probe what a checkpoint caught mid-flight (in-flight
 * requests, powered-down ranks, pending relock/refresh events)
 * without restoring it.
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
};

/** Parse a snapshot file's meta block (fatal on unreadable files). */
SnapshotMeta readSnapshotMeta(const std::string &path);

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
 * wires every component, or rebuilds them from
 * cfg.snapshot.resumePath; advance() runs the event queue forward;
 * finish() closes the energy integral and collects the RunResult.
 * advance() stops on an EvEphemeral Sample-class event, the same
 * mechanism as a checkpoint cut, so a stepped run is bit-identical to
 * an uninterrupted one.
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
     * Run events up to tick `until`: those already pending at `until`
     * run, those scheduled later at `until` wait for the next call.
     * Returns early when the workload finishes, a stop-after
     * checkpoint fires or maxSimTime passes; a no-op after that.
     */
    void advance(Tick until);

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

  private:
    void restore();
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
    enum class Phase { Running, Complete, Cut, TimeLimit, Finished };
    Phase phase_ = Phase::Running;
    std::uint32_t done_ = 0;
    std::vector<std::string> checkpointsWritten_;
    std::function<void()> periodic_;
};

} // namespace memscale

#endif // MEMSCALE_HARNESS_SYSTEM_HH
