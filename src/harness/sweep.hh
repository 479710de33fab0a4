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
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn) const;

    /**
     * Parallel map: out[i] = fn(i), with forEach()'s guarantees.
     * T must be default-constructible and movable.
     */
    template <typename T>
    std::vector<T>
    map(std::size_t n, const std::function<T(std::size_t)> &fn) const
    {
        std::vector<T> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

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
 * compare() every case concurrently; result[i] corresponds to
 * cases[i].  Each task runs its own baseline + policy pair.
 */
std::vector<ComparisonResult>
compareCases(const SweepEngine &eng, const std::vector<SweepCase> &cases);

/** runBaseline() every configuration concurrently. */
std::vector<CalibratedBaseline>
runBaselines(const SweepEngine &eng,
             const std::vector<SystemConfig> &cfgs);

/**
 * The policy-grid shape shared by the figure drivers: every policy
 * against every pre-calibrated (cfg, baseline) pair.  The result for
 * policy p on config i lands at [p * cfgs.size() + i].
 */
std::vector<ComparisonResult>
comparePolicyGrid(const SweepEngine &eng,
                  const std::vector<SystemConfig> &cfgs,
                  const std::vector<CalibratedBaseline> &bases,
                  const std::vector<std::string> &policies);

} // namespace memscale

#endif // MEMSCALE_HARNESS_SWEEP_HH
