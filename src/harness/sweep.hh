/**
 * @file
 * Parallel sweep engine for independent simulation runs.
 *
 * Every figure reproduction fans out the same shape of work — mix x
 * policy x seed x config points, each an isolated `System` run — so
 * the harness provides one fixed-size thread pool with a
 * work-stealing task queue to run them concurrently.  Determinism is
 * preserved by construction: results are keyed by task index, never
 * by completion order, so a sweep produces byte-identical reports
 * whether it runs on 1 thread or 16.
 *
 * A batch that carries a predicted cost per task is dealt longest
 * first, so the long runs start at once instead of forming the tail.
 * The engine also memoises whole runs (simulate()): within one engine,
 * a run that two tasks need is simulated once.
 *
 * Job-count control, in increasing precedence: hardware concurrency,
 * the MEMSCALE_JOBS environment variable, an explicit `jobs=N` /
 * `--jobs N` argument.  `jobs=1` is a graceful fallback that executes
 * every task inline on the calling thread without spawning anything.
 */

#ifndef MEMSCALE_HARNESS_SWEEP_HH
#define MEMSCALE_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/system.hh"

namespace memscale
{

/**
 * Hard ceiling on the worker count.  Sweeps are CPU-bound, so more
 * workers than this is never useful and usually a sign of a bogus
 * jobs value (e.g. a negative number cast to unsigned).
 */
inline constexpr unsigned MaxJobs = 1024;

/**
 * Resolve an effective worker count: `requested` if non-zero, else
 * the MEMSCALE_JOBS environment variable, else the number of hardware
 * threads (at least 1).  An empty or "0" MEMSCALE_JOBS means auto;
 * anything but a non-negative integer is fatal.  Values above MaxJobs
 * are clamped with a warning.
 */
unsigned resolveJobs(unsigned requested = 0);

/**
 * Validate a user-supplied (possibly signed) jobs value: negative is
 * fatal, oversized is clamped, 0 still means "auto" for the
 * SweepEngine constructor.
 */
unsigned checkedJobs(long long requested);

class SweepEngine
{
  public:
    /** jobs == 0 resolves via resolveJobs(). */
    explicit SweepEngine(unsigned jobs = 0);
    ~SweepEngine();

    SweepEngine(SweepEngine &&) noexcept;
    SweepEngine &operator=(SweepEngine &&) noexcept;

    /** Effective worker count (>= 1, includes the calling thread). */
    unsigned jobs() const;

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * Tasks must be independent of each other.  If any task throws,
     * the remaining tasks still run and the exception from the
     * lowest-indexed failing task is rethrown afterwards (so failure
     * reporting is deterministic too).
     *
     * `cost`, when given, holds each task's predicted cost (n
     * entries): tasks are then dealt to the workers round-robin in
     * descending cost, ties by index.  Without it each worker gets a
     * contiguous chunk of indices.  Either way idle workers steal.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 const std::vector<double> &cost = {}) const;

    /**
     * Parallel map: out[i] = fn(i), with forEach()'s guarantees.
     * T must be default-constructible and movable.
     */
    template <typename T>
    std::vector<T>
    map(std::size_t n, const std::function<T(std::size_t)> &fn,
        const std::vector<double> &cost = {}) const
    {
        std::vector<T> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); }, cost);
        return out;
    }

    /**
     * memscale::simulate(cfg, policy), at most once per distinct run
     * for the engine's lifetime.  Runs are keyed by runIdentity(); a
     * task that needs a run another task is simulating waits for it,
     * and a run that failed rethrows its error in every task that
     * needs it.  A run with a resumePath is always simulated.
     */
    RunResult simulate(const SystemConfig &cfg,
                       const std::string &policy) const;

    /** System runs simulate() has started, memo hits not counted. */
    std::size_t runsSimulated() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** One point of a comparison sweep: a configuration and a policy. */
struct SweepCase
{
    SystemConfig cfg;
    std::string policy;
};

/** Calibrated baseline of one configuration (see runBaseline()). */
struct CalibratedBaseline
{
    RunResult base;
    Watts rest = 0.0;
};

/**
 * Predicted cost of one run of `cfg`, in DRAM requests: the budget
 * times each core's run-average MPKI + WPKI for a closed-loop run,
 * arrivals times misses per request for a serving run.  Only the
 * order it puts tasks in matters.
 */
double predictedCost(const SystemConfig &cfg);

/**
 * compare() every case concurrently; result[i] corresponds to
 * cases[i].  Each task runs its case's baseline and policy through
 * eng.simulate(), so cases that share a baseline simulate it once.
 */
std::vector<ComparisonResult>
compareCases(const SweepEngine &eng, const std::vector<SweepCase> &cases);

/** runBaseline() every configuration concurrently, memoised. */
std::vector<CalibratedBaseline>
runBaselines(const SweepEngine &eng,
             const std::vector<SystemConfig> &cfgs);

/**
 * The policy-grid shape shared by the figure drivers: every policy
 * against every pre-calibrated (cfg, baseline) pair, each policy run
 * through eng.simulate().  The result for policy p on config i lands
 * at [p * cfgs.size() + i].
 */
std::vector<ComparisonResult>
comparePolicyGrid(const SweepEngine &eng,
                  const std::vector<SystemConfig> &cfgs,
                  const std::vector<CalibratedBaseline> &bases,
                  const std::vector<std::string> &policies);

} // namespace memscale

#endif // MEMSCALE_HARNESS_SWEEP_HH
