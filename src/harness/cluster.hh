/**
 * @file
 * Fleet simulator: N server instances under a shared rack/PDU power
 * budget, coordinated by a FastCap-style budget divider.
 *
 * Each server is a live System with its own open-loop serving front
 * end, seeded independently via splitmix64 stream derivation
 * (deriveSeed(fleetSeed, k) depends only on the server index, so
 * server k's stream never changes when the fleet grows).  Servers
 * advance in coordination epochs, fanned out across the SweepEngine;
 * after each epoch the Coordinator reads every server's telemetry and,
 * under a cap, divides the fleet budget for the *next* epoch — stale
 * by exactly one epoch, as a real out-of-band controller would see it.
 * A capped fleet therefore steps in lockstep, one epoch per batch; an
 * uncapped one lets each server run every epoch of an advance() in one
 * batch and records the epochs' rows in order afterwards.
 *
 * A fleet is stepped the way a System is: advance() to an epoch
 * boundary, checkpoint() there, finish() to collect the results.
 * Fleets cut and resume bit-identically: a fleet snapshot is a
 * container with a "cluster" section (config fingerprint, epoch
 * cursor, telemetry, per-epoch power rows) next to one ordinary
 * per-server snapshot file per server (`<path>.server<k>`).  Files are
 * written only by checkpoint().
 */

#ifndef MEMSCALE_HARNESS_CLUSTER_HH
#define MEMSCALE_HARNESS_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/system.hh"

namespace memscale
{

class StatRegistry;

/** What one server reports to the coordinator after an epoch. */
struct ServerTelemetry
{
    bool valid = false;
    /** Measured average power over the epoch, W (ground truth). */
    Watts measuredW = 0.0;
    /** Policy-predicted uncapped power demand, W. */
    Watts demandW = 0.0;
    /** Policy-predicted power floor (min-power operating point), W. */
    Watts minW = 0.0;
    /** Policy-predicted slowdown at the chosen operating point. */
    double slowdown = 1.0;
};

/** One coordination epoch's budget split. */
struct BudgetAllocation
{
    std::vector<Watts> budgetW;
    /** False when even the sum of power floors exceeds the cap. */
    bool feasible = true;
    /** Granted fraction of each server's (demand - min) span. */
    double theta = 1.0;
};

/**
 * Divide `capW` across servers: weighted water-fill on the fraction
 * of each server's (demand - min) span.  Pure and deterministic; the
 * property tests fuzz it directly.  Invariants: sum(budget) <= cap;
 * work-conserving (either every server gets its full demand or the
 * cap is exhausted up to bisection epsilon); budget_k >= min_k
 * whenever sum(min) <= cap.  Weights are per-server fairness shares
 * (empty = equal); servers with larger weights reach their demand
 * first as the budget loosens.
 */
BudgetAllocation
allocateFleetBudget(Watts capW,
                    const std::vector<ServerTelemetry> &telemetry,
                    const std::vector<double> &weights);

/** Jain's fairness index: (sum x)^2 / (n * sum x^2); 1 = equal. */
double jainIndex(const std::vector<double> &x);

/** Fleet-level configuration. */
struct ClusterConfig
{
    std::uint32_t numServers = 4;

    /**
     * Per-server template.  serving.enabled must be set; seed is the
     * fleet base seed (server k runs deriveSeed(seed, k)); restWatts
     * must already be calibrated (the harness never runs baselines).
     * Leave serving.arrival.seed at 0 so each server derives its own
     * arrival stream.
     */
    SystemConfig server;

    /** Per-server policy name ("fastcap" for coordinated capping). */
    std::string policy = "fastcap";

    /**
     * Fleet power cap, W (0 = uncoordinated: no budgets applied).
     * Must be finite and non-negative.
     */
    Watts capW = 0.0;

    /** Coordination epoch; must be >= server.epochLen. */
    Tick coordEpoch = msToTick(0.25);

    /** Fairness weights, cycled over servers (empty = equal). */
    std::vector<double> weights;

    /** Arrival-rate multipliers, cycled (heterogeneous load). */
    std::vector<double> rateScale;

    /** Ignored: servers stay in memory.  Kept for old callers. */
    std::string scratchDir;

    /** Sweep parallelism across servers (0 = hardware default). */
    unsigned jobs = 1;

    /**
     * Resume from this fleet snapshot (written by
     * ClusterHarness::checkpoint) instead of starting at epoch 0.
     */
    std::string resumePath;
};

/** One coordination epoch's fleet-wide power accounting. */
struct FleetEpochRow
{
    std::uint32_t epoch = 0;
    Tick start = 0;
    Tick end = 0;
    std::vector<Watts> budgetW;    ///< empty when uncoordinated
    std::vector<Watts> measuredW;
    Watts fleetW = 0.0;            ///< sum of measured
    Watts fleetBudgetW = 0.0;      ///< sum of budgets
    bool capMet = true;            ///< fleetW <= capW (or no cap)
    bool allocFeasible = true;
};

/** Fleet run outcome. */
struct FleetResult
{
    std::vector<RunResult> servers;
    std::vector<FleetEpochRow> epochs;
    /** Order-sensitive combination of per-server result hashes. */
    std::uint64_t fleetHash = 0;
    Joules fleetEnergyJ = 0.0;
    Watts peakEpochW = 0.0;
    /** Epochs whose measured fleet power exceeded the cap. */
    std::uint32_t capViolations = 0;
    /** Fraction of servers with p99 <= serving.sloP99Us (if set). */
    double sloAttainment = 0.0;
    /** Jain's index over per-server predicted slowdown (fastcap). */
    double jainSlowdown = 1.0;
};

/** Fleet snapshot summary (snapshot_tool `meta=` on a fleet file). */
struct FleetMeta
{
    bool valid = false;
    std::uint32_t numServers = 0;
    std::string policy;
    Watts capW = 0.0;
    Tick coordEpoch = 0;
    std::uint32_t epochsDone = 0;
    std::vector<Watts> budgetW;   ///< last epoch's budgets
    Watts lastFleetW = 0.0;
};

/** Read the "cluster" section summary; valid=false if absent. */
FleetMeta readFleetMeta(const std::string &path);

/**
 * A fleet, built once and then stepped in whole coordination epochs.
 * The constructor only checks the config (and, on resume, reads and
 * verifies the "cluster" section); the first advance() or finish()
 * builds the servers, or resumes them from their per-server files.
 */
class ClusterHarness
{
  public:
    explicit ClusterHarness(const ClusterConfig &cfg);

    /**
     * Per-server + fleet gauges under `server<k>.` / `fleet.`
     * prefixes.  Register before run(); values track the most recent
     * coordination epoch.
     */
    void registerStats(StatRegistry &reg);

    /** Run the whole horizon: advance(numEpochs()), then finish(). */
    FleetResult run();

    /** Coordination epochs over the horizon (the last may be short). */
    std::size_t numEpochs() const { return cuts_.size() + 1; }

    /**
     * Run coordination epochs until `epochs` of them are done (a
     * cursor, not a count; clamped to numEpochs()).  Returns whether
     * any epochs remain.  A no-op after finish().
     */
    bool advance(std::size_t epochs);

    /**
     * Write the fleet file `path` plus `<path>.server<k>` for every
     * server.  Only at a cut between epochs: at least one epoch done,
     * at least one left, and the fleet not finished.
     */
    void checkpoint(const std::string &path);

    /** Collect the fleet's results at the current epoch (ends it). */
    FleetResult finish();

    /** The derived per-server config (exposed for tests). */
    SystemConfig serverConfig(std::uint32_t k) const;

  private:
    /** Build every server, or resume it, on first use. */
    void startServers();

    ClusterConfig cfg_;
    /** Epoch boundaries strictly inside the horizon. */
    std::vector<Tick> cuts_;
    std::vector<double> weights_;

    // The coordinator's state between epochs; a fleet snapshot's
    // "cluster" section holds exactly these.
    std::size_t epoch_ = 0;   ///< epochs done
    std::vector<ServerTelemetry> tele_;
    std::vector<double> prevEnergy_;
    std::vector<FleetEpochRow> rows_;
    bool finished_ = false;

    std::optional<SweepEngine> eng_;
    std::vector<std::unique_ptr<Policy>> policies_;
    std::vector<std::unique_ptr<System>> servers_;

    // Live obs gauges, updated once per coordination epoch.
    std::vector<double> obsBudgetW_;
    std::vector<double> obsPowerW_;
    std::vector<double> obsP99Us_;
    std::vector<double> obsSlowdown_;
    double obsFleetW_ = 0.0;
    double obsEpoch_ = 0.0;
};

} // namespace memscale

#endif // MEMSCALE_HARNESS_CLUSTER_HH
